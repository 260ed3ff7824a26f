// Package wal is the write-ahead log of the durability subsystem: an
// append-only file of per-transaction redo records (the write set a
// committed transaction published, captured at the commit hook), made
// durable by a group-commit daemon that starts an fsync the moment a
// record is pending and lets everything appended during that fsync form
// the next group, and replayed after a crash by Replay, which accepts
// exactly the longest valid prefix and discards the torn tail via
// per-record CRCs.
//
// The record framing is also the replication format. A leader's
// publisher reads whole records out of this file with a Tailer and
// ships their bytes unchanged; a follower decodes them with
// ParseRecord, the decoder Replay uses, and applies them with Redo, the
// rule crash recovery applies. One redo record, one parser and one
// apply rule run from commit to the follower's heap.
//
// The flush is the one signal that the durable prefix advanced: it
// stores DurableSeq, then sends a token to every Notify channel. Every
// durability wait sleeps on it; nothing polls.
//
// Ordering contract: Append assigns sequence numbers under the same
// mutex that serializes buffer writes, so file order equals sequence
// order; callers (internal/durable.Store) invoke Append inside the TM
// commit critical section, so sequence order also equals the
// serialization order of conflicting transactions. Replaying records in
// file order therefore reproduces every prefix of the commit history.
//
// Failure model: log I/O errors are fail-stop. A write or fsync failure
// leaves the daemon panicking rather than acknowledging transactions it
// can no longer make durable — the same posture production engines take
// after fsyncgate.
package wal

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/footprint"
	"sihtm/internal/stats"
	"sihtm/internal/trace"
)

// Config tunes a Log.
type Config struct {
	// NoDaemon disables the background flusher: nothing becomes durable
	// until Sync is called. Tests and the allocation pins use this to
	// keep all I/O off the measured path.
	NoDaemon bool
	// FirstSeq is the sequence number of the first record appended
	// (default 1). A store recovered to sequence S continues its log
	// with FirstSeq = S+1.
	FirstSeq uint64
}

// Stats counts a log's activity (monotonic, read with Stats).
type Stats struct {
	// Records and Bytes are appended totals (not necessarily durable).
	Records uint64
	Bytes   uint64
	// Batches is how many flushes wrote data; Fsyncs counts fsyncs
	// (equal to Batches unless Sync found nothing pending).
	Batches uint64
	Fsyncs  uint64
}

// Log is an append-only redo log over one file.
type Log struct {
	mu      sync.Mutex    // guards buf, bufRecs; serializes sequence assignment
	buf     []byte        // encoded records not yet handed to the flusher
	bufRecs uint64        // records in buf (group-commit batch in progress)
	lastSeq atomic.Uint64 // highest sequence assigned; stored under mu

	f       logFile
	flushMu sync.Mutex // serializes flushes; held across write+fsync
	scratch []byte     // flusher-owned swap buffer (reused)

	durable  atomic.Uint64 // highest fsynced seq; stored by flush only
	notifyMu sync.Mutex
	notify   []chan struct{} // Notify's registrations; each gets a token per flush

	records atomic.Uint64
	bytes   atomic.Uint64
	batches atomic.Uint64
	fsyncs  atomic.Uint64

	// fsyncHist observes the wall time of each fsync. It is lock-free
	// and costs nothing until a telemetry registry scrapes it.
	fsyncHist stats.Histogram

	// traceRing, when set, receives one KFsync span per group-commit
	// flush that wrote data (Seq = highest sequence made durable, Arg =
	// records covered) — the durability boundary's slice of an
	// end-to-end trace. Atomic pointer so SetTraceRing is safe after the
	// daemon started.
	traceRing atomic.Pointer[trace.Ring]

	kick chan struct{} // holds one token while a record may be pending; wakes the daemon
	stop chan struct{}
	done chan struct{}
}

// logFile is what the log needs of its *os.File; tests substitute one
// whose Sync stalls.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Create creates (truncating) the log file at path.
func Create(path string, cfg Config) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	first := cfg.FirstSeq
	if first == 0 {
		first = 1
	}
	l := &Log{
		f:    f,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	l.lastSeq.Store(first - 1)
	l.durable.Store(first - 1)
	if cfg.NoDaemon {
		close(l.done)
	} else {
		go l.daemon()
	}
	return l, nil
}

// Append captures one committed transaction's write set as a redo
// record, assigning and returning its sequence number. entries may
// alias pooled storage owned by the caller: the record is fully encoded
// before Append returns. Durability is asynchronous — the record is on
// disk only once DurableSeq passes the returned sequence (see
// WaitDurable).
//
// Append is called on the TM commit hot path and does not allocate once
// the append buffer has grown to its steady-state capacity.
func (l *Log) Append(entries []footprint.Entry) uint64 {
	l.mu.Lock()
	seq := l.lastSeq.Load() + 1
	l.lastSeq.Store(seq)
	before := len(l.buf)
	l.buf = appendRecord(l.buf, seq, entries)
	grew := len(l.buf) - before
	l.bufRecs++
	l.mu.Unlock()

	l.records.Add(1)
	l.bytes.Add(uint64(grew))
	select {
	case l.kick <- struct{}{}:
	default: // a token is already waiting for the daemon
	}
	return seq
}

// LastSeq returns the highest sequence number assigned so far. Like
// DurableSeq it is one atomic load: the server reads both per batch.
func (l *Log) LastSeq() uint64 { return l.lastSeq.Load() }

// DurableSeq returns the highest sequence number known fsynced.
func (l *Log) DurableSeq() uint64 { return l.durable.Load() }

// Notify registers ch for a token after every flush, daemon or Sync.
// The send never blocks (a full ch keeps the token it holds), so give ch
// capacity 1 and re-read DurableSeq after each token.
func (l *Log) Notify(ch chan struct{}) {
	l.notifyMu.Lock()
	l.notify = append(l.notify, ch)
	l.notifyMu.Unlock()
}

// StopNotify unregisters ch: no flush sends to it after this returns.
func (l *Log) StopNotify(ch chan struct{}) {
	l.notifyMu.Lock()
	if i := slices.Index(l.notify, ch); i >= 0 {
		l.notify = slices.Delete(l.notify, i, i+1)
	}
	l.notifyMu.Unlock()
}

// waitChans recycles WaitDurable's channels; a stale token costs a re-check.
var waitChans = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// WaitDurable blocks until every record with sequence ≤ seq is fsynced.
// With NoDaemon set, it returns only after a caller runs Sync.
func (l *Log) WaitDurable(seq uint64) {
	if l.durable.Load() >= seq {
		return
	}
	ch := waitChans.Get().(chan struct{})
	l.Notify(ch)
	for l.durable.Load() < seq {
		<-ch
	}
	l.StopNotify(ch)
	waitChans.Put(ch)
}

// Sync flushes everything appended so far and fsyncs the file. It is
// the manual flush for NoDaemon logs and the checkpoint force
// (checkpoints must not finalize before the log covers them).
func (l *Log) Sync() error { return l.flush() }

// flush writes and fsyncs all pending records. Serialized by flushMu so
// the daemon and explicit Syncs do not interleave file writes.
func (l *Log) flush() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.Lock()
	pending := l.buf
	recs := l.bufRecs
	hi := l.lastSeq.Load()
	l.buf = l.scratch[:0] // hand the appenders the (empty) swap buffer
	l.bufRecs = 0
	l.mu.Unlock()
	l.scratch = pending[:0] // next flush swaps back

	if len(pending) > 0 {
		if _, err := l.f.Write(pending); err != nil {
			return fmt.Errorf("wal: write: %w", err)
		}
		l.batches.Add(1)
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	fsyncDur := time.Since(t0)
	l.fsyncHist.Observe(fsyncDur)
	l.fsyncs.Add(1)
	if recs > 0 {
		if r := l.traceRing.Load(); r != nil {
			r.Add(trace.Span{
				Kind:  trace.KFsync,
				Seq:   hi,
				Start: t0.UnixNano(),
				Dur:   int64(fsyncDur),
				Arg:   int64(recs),
			})
		}
	}

	l.durable.Store(hi) // flushes are serialized: hi never moves backwards
	l.notifyMu.Lock()
	for _, ch := range l.notify {
		select {
		case ch <- struct{}{}:
		default: // the receiver has not taken the last token yet
		}
	}
	l.notifyMu.Unlock()
	return nil
}

// daemon is the group-commit loop. It sleeps on kick and starts a flush
// the moment a record is pending, so a record never waits for a timer
// while the disk is idle; records appended while that fsync is in flight
// leave a new token in kick and form the next group, which starts as
// soon as the first returns. The fsync's own latency is the batching
// window.
func (l *Log) daemon() {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			return
		case <-l.kick:
		}
		if l.PendingBytes() == 0 {
			continue // the flush before this one already took the record
		}
		if err := l.flush(); err != nil {
			// Fail-stop: we can no longer honour durability promises.
			panic(err)
		}
	}
}

// Close stops the daemon, flushes the remainder and closes the file.
func (l *Log) Close() error {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	<-l.done
	err := l.flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns the activity counters.
func (l *Log) Stats() Stats {
	return Stats{
		Records: l.records.Load(),
		Bytes:   l.bytes.Load(),
		Batches: l.batches.Load(),
		Fsyncs:  l.fsyncs.Load(),
	}
}

// FsyncHist returns the live fsync-latency histogram for telemetry
// registration. Callers must only snapshot it.
func (l *Log) FsyncHist() *stats.Histogram { return &l.fsyncHist }

// SetTraceRing attaches a span ring: every subsequent group-commit
// flush that writes data records a KFsync span into it. Nil detaches.
func (l *Log) SetTraceRing(r *trace.Ring) { l.traceRing.Store(r) }

// PendingBytes returns the size of the append buffer awaiting the next
// flush — the WAL's queue depth as seen by the group-commit daemon.
func (l *Log) PendingBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}
