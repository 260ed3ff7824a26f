package replica

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
	"sihtm/internal/trace"
	"sihtm/internal/wal"
	"sihtm/internal/wire"
)

// FollowerConfig assembles a Follower.
type FollowerConfig struct {
	// Heap is the follower's heap, already holding the deterministic
	// base image (the same post-population state the leader's log was
	// started from — the contract crash recovery also relies on).
	Heap *memsim.Heap
	// Dial opens a connection to the leader. Tests and chaos harnesses
	// inject fault-wrapped dialers here.
	Dial func() (net.Conn, error)
	// ReadTimeout bounds one stream read; it doubles as the liveness
	// timeout (the leader heartbeats far more often). Default 1s.
	ReadTimeout time.Duration
}

// retryEvery paces reconnect attempts.
const retryEvery = 5 * time.Millisecond

// Follower replays the leader's stream into its own heap, from sequence
// 1 on, and publishes how far it got. Reads served off the heap take
// RLock so they observe a consistent prefix (apply holds the write lock
// per batch); the watermark a read observes is the sequence number its
// snapshot corresponds to.
type Follower struct {
	cfg  FollowerConfig
	heap *memsim.Heap

	// mu excludes batch application from snapshot readers: apply holds
	// Lock across a whole batch, readers hold RLock across a whole
	// read transaction, so every read sees a record boundary.
	mu sync.RWMutex

	watermark atomic.Uint64 // highest applied sequence (published under mu)
	leaderSeq atomic.Uint64 // durable frontier the leader last advertised

	// Decode buffers the stream loop reuses from batch to batch: the
	// trace list (wire.ParseReplBatch) and one record's entries
	// (wal.ParseRecord, under mu).
	traces  []wire.ReplTrace
	entries []footprint.Entry

	promoted   atomic.Bool
	reconnects atomic.Uint64
	applied    atomic.Uint64

	// traceRing, when set, receives one KReplApply span per applied
	// traced record — the replication leg of an end-to-end trace.
	// Records skipped by the idempotent resume overlap emit nothing:
	// a reconnect must never duplicate a span.
	traceRing atomic.Pointer[trace.Ring]

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewFollower validates the configuration and builds the follower (not
// yet streaming).
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Heap == nil || cfg.Dial == nil {
		return nil, fmt.Errorf("replica: FollowerConfig needs Heap and Dial")
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = time.Second
	}
	return &Follower{
		cfg:  cfg,
		heap: cfg.Heap,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Start launches the streaming loop: dial, subscribe from the
// watermark, apply until the connection dies, reconnect. Idempotent.
func (f *Follower) Start() {
	f.startOnce.Do(func() { go f.run() })
}

// Stop ends the streaming loop and waits for it to exit. Idempotent;
// implied by Promote.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.startOnce.Do(func() { close(f.done) }) // never started: unblock the wait
	<-f.done
}

// Close is Stop; it never fails.
func (f *Follower) Close() error {
	f.Stop()
	return nil
}

// Watermark returns the highest applied sequence number: reads served
// under RLock observe exactly commits 1..Watermark.
func (f *Follower) Watermark() uint64 { return f.watermark.Load() }

// LeaderSeq returns the durable frontier the leader last advertised;
// LeaderSeq - Watermark is the replication lag in commits.
func (f *Follower) LeaderSeq() uint64 { return f.leaderSeq.Load() }

// Reconnects counts stream re-establishments (chaos survivability).
func (f *Follower) Reconnects() uint64 { return f.reconnects.Load() }

// Applied counts applied records.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Promoted reports whether the follower has been promoted.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// SetTraceRing attaches a span ring: every subsequently applied stream
// record that carries a trace id records a KReplApply span into it.
// Nil detaches.
func (f *Follower) SetTraceRing(r *trace.Ring) { f.traceRing.Store(r) }

// RLock / RUnlock bracket one snapshot read transaction.
func (f *Follower) RLock()   { f.mu.RLock() }
func (f *Follower) RUnlock() { f.mu.RUnlock() }

// Lock / Unlock quiesce the follower entirely (structural checks).
func (f *Follower) Lock()   { f.mu.Lock() }
func (f *Follower) Unlock() { f.mu.Unlock() }

// WaitWatermark blocks until the watermark reaches seq or the timeout
// expires, reporting which.
func (f *Follower) WaitWatermark(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for f.watermark.Load() < seq {
		if time.Now().After(deadline) {
			return f.watermark.Load() >= seq
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// Stats summarizes the follower for the control plane.
func (f *Follower) Stats() wire.ReplStats {
	role := "follower"
	if f.promoted.Load() {
		role = "promoted"
	}
	return wire.ReplStats{
		Role:       role,
		Watermark:  f.watermark.Load(),
		LeaderSeq:  f.leaderSeq.Load(),
		Reconnects: f.reconnects.Load(),
	}
}

// Promote turns the follower into a serving leader: stop the stream,
// catch up from the (dead) leader's log file when a path is given —
// Replay's valid prefix contains every acknowledged commit, which is
// the zero-loss argument — and mark the node promoted so its server
// starts admitting writes. Returns the final watermark.
func (f *Follower) Promote(leaderLogPath string) (uint64, error) {
	f.Stop()
	if leaderLogPath != "" {
		if err := f.CatchUp(leaderLogPath); err != nil {
			return f.watermark.Load(), err
		}
	}
	f.promoted.Store(true)
	return f.watermark.Load(), nil
}

// CatchUp replays the valid prefix of the log at path, applying every
// record past the current watermark. The caller must have stopped the
// stream first (Promote does).
func (f *Follower) CatchUp(path string) error {
	_, err := wal.Replay(path, func(seq uint64, entries []footprint.Entry) error {
		f.mu.Lock()
		defer f.mu.Unlock()
		wm := f.watermark.Load()
		if seq <= wm {
			return nil
		}
		if seq != wm+1 {
			return fmt.Errorf("replica: catch-up gap: got seq %d at watermark %d", seq, wm)
		}
		return f.applyLocked(seq, entries)
	})
	return err
}

// run is the streaming loop.
func (f *Follower) run() {
	trace.LabelGoroutine(trace.StageApply, trace.RoleFollower)
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		conn, err := f.cfg.Dial()
		if err != nil {
			f.pause()
			continue
		}
		err = f.follow(conn)
		conn.Close()
		select {
		case <-f.stop:
			return
		default:
		}
		_ = err // any stream end short of Stop is a reconnect
		f.reconnects.Add(1)
		f.pause()
	}
}

// pause sleeps one retry quantum, or returns early on stop.
func (f *Follower) pause() {
	select {
	case <-f.stop:
	case <-time.After(retryEvery):
	}
}

// follow subscribes on one connection and applies its stream until the
// connection breaks or the follower stops. Any read timeout is treated
// as a dead leader (heartbeats bound the idle gap), so a stuck stream
// converges to reconnect-and-resume rather than hanging.
func (f *Follower) follow(conn net.Conn) error {
	sub := wire.AppendFrame(nil, 1, wire.TReplSub, wire.AppendReplSub(nil, f.watermark.Load()+1))
	conn.SetWriteDeadline(time.Now().Add(f.cfg.ReadTimeout))
	if _, err := conn.Write(sub); err != nil {
		return err
	}
	var buf []byte
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}
		conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
		var (
			t       wire.Type
			payload []byte
			err     error
		)
		_, t, payload, buf, err = wire.ReadFrame(conn, buf)
		if err != nil {
			return err
		}
		switch t {
		case wire.TReplBatch:
			b, err := wire.ParseReplBatch(payload, f.traces)
			if err != nil {
				return err
			}
			f.traces = b.Traces
			if err := f.applyBatch(b); err != nil {
				return err
			}
		case wire.TErr:
			return fmt.Errorf("replica: leader refused: %s", payload)
		default:
			return fmt.Errorf("replica: unexpected stream frame %v", t)
		}
	}
}

// applyBatch applies one stream batch under the write lock, decoding
// its records straight from the payload with the WAL's parser. Records
// at or below the watermark are skipped (a resumed stream may overlap).
// A gap, or a records section that does not parse to its end — a
// damaged or truncated record, trailing bytes — is a stream error:
// every record before it stays applied, and the reconnect path
// resubscribes from the watermark and heals it.
func (f *Follower) applyBatch(b wire.ReplBatch) error {
	if b.Watermark > f.leaderSeq.Load() {
		f.leaderSeq.Store(b.Watermark)
	}
	if len(b.Records) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ring := f.traceRing.Load()
	traces := b.Traces
	for rest := b.Records; len(rest) > 0; {
		seq, entries, size, ok := wal.ParseRecord(rest, f.entries)
		if !ok {
			return fmt.Errorf("replica: damaged record in stream at watermark %d", f.watermark.Load())
		}
		f.entries = entries
		rest = rest[size:]
		wm := f.watermark.Load()
		if seq <= wm {
			// Idempotent resume overlap: already applied, so the span for
			// this record was already emitted (or never will be) — a
			// reconnect replaying the overlap must not duplicate it.
			continue
		}
		if seq != wm+1 {
			return fmt.Errorf("replica: stream gap: got seq %d at watermark %d", seq, wm)
		}
		for len(traces) > 0 && traces[0].Seq < seq {
			traces = traces[1:]
		}
		var tr uint64
		if len(traces) > 0 && traces[0].Seq == seq {
			tr = traces[0].Trace
		}
		traced := ring != nil && tr != 0
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		if err := f.applyLocked(seq, entries); err != nil {
			return err
		}
		if traced {
			ring.Add(trace.Span{
				Trace: tr,
				Kind:  trace.KReplApply,
				Seq:   seq,
				Start: t0.UnixNano(),
				Dur:   int64(time.Since(t0)),
				Arg:   int64(seq),
			})
		}
	}
	return nil
}

// applyLocked redoes one record into the heap by the rule recovery
// applies (wal.Redo) and publishes the new watermark. Callers hold mu.
func (f *Follower) applyLocked(seq uint64, entries []footprint.Entry) error {
	if err := wal.Redo(f.heap, entries); err != nil {
		return fmt.Errorf("replica: seq %d: %w", seq, err)
	}
	f.applied.Add(1)
	f.watermark.Store(seq)
	return nil
}
