// Package replica is the WAL-shipping layer of the replicated cluster:
// a leader publishes its committed redo records to followers, each
// follower continuously replays them into its own heap and serves
// read-only transactions from the replayed snapshot, and a follower can
// be promoted into a serving leader after the old leader dies.
//
// The design composes three existing guarantees:
//
//   - The WAL's ordering contract (file order = sequence order =
//     serialization order) means a follower that applies records in
//     sequence order holds, at watermark W, exactly the state produced
//     by commits 1..W — the same prefix-consistency argument as crash
//     recovery, running continuously.
//   - The durable store's "acknowledged ⇒ fsynced" rule bounds what the
//     leader ships: only records at or below the durable frontier go on
//     the wire, so a follower never applies a commit the leader could
//     still lose.
//   - The paper's snapshot read-only transactions are the consistency
//     story for replica reads: a follower's reads run against a
//     stale-but-consistent prefix at a published watermark — exactly an
//     SI-HTM ROT whose snapshot is W commits old.
//
// Failover is shared-log promotion: a promoted follower first catches
// up from the dead leader's log file on disk (Replay's valid prefix —
// everything acknowledged is inside it, the torn tail never was), so
// zero acknowledged commits are lost even when the replication stream
// was cut mid-flight. The stream's job is to keep the follower near the
// frontier so promotion is fast; the log's job is to make it exact.
package replica

import (
	"io"
	"sync/atomic"
	"time"

	"sihtm/internal/wal"
	"sihtm/internal/wire"
)

// streamChunkBytes bounds the records section of one TReplBatch
// payload; large commits still ship (a record is never split), the
// bound only decides where record runs are cut into frames.
const streamChunkBytes = 128 << 10

// heartbeatEvery is the idle bound on the stream: a publisher with
// nothing new to ship emits an empty batch this often so followers can
// tell a quiet leader from a dead one (their read timeout is a small
// multiple of this).
const heartbeatEvery = 50 * time.Millisecond

// Publisher is the leader side of WAL shipping: it serves any number of
// subscribers, each tailing the leader's log file from the subscriber's
// own resume point, bounded by the durable frontier.
type Publisher struct {
	logPath string
	log     *wal.Log
	subs    atomic.Int64
	drops   atomic.Uint64

	// traceOf, when set, maps a record's commit sequence number to the
	// trace id of the request that produced it (zero when unknown or
	// evicted). Each frame's trace list carries the nonzero ones, so
	// followers can close the replication leg of an end-to-end trace.
	traceOf func(uint64) uint64
}

// NewPublisher builds a publisher over the leader's log. logPath is the
// same file the log appends to; each subscriber gets its own read-only
// tailer over it. traceOf (nil disables traced shipping) is the
// seq→trace mapping every stream consults — the server's lossy
// SeqTraces table.
func NewPublisher(logPath string, log *wal.Log, traceOf func(uint64) uint64) *Publisher {
	return &Publisher{logPath: logPath, log: log, traceOf: traceOf}
}

// Subscribers returns the number of live streams.
func (p *Publisher) Subscribers() int { return int(p.subs.Load()) }

// Dropped returns how many subscriber streams ended on a failed write —
// followers that went away mid-stream rather than unsubscribing by
// closing cleanly before a frame was in flight.
func (p *Publisher) Dropped() uint64 { return p.drops.Load() }

// Stream serves one subscriber: TReplBatch frames carrying consecutive
// records from fromSeq onward, bounded by the durable frontier, written
// to w until the write fails or stop closes. The records are the log's
// own bytes, copied out of the file by a tailer; every frame carries the
// frontier as its watermark and a trace id for each of its records the
// lookup knows. An idle stream sleeps on the log's flush signal
// (Log.Notify) and bridges quiet periods with heartbeat frames so the
// subscriber's liveness timeout holds.
func (p *Publisher) Stream(w io.Writer, id, fromSeq uint64, stop <-chan struct{}) error {
	t, err := wal.OpenTailer(p.logPath, fromSeq)
	if err != nil {
		return err
	}
	defer t.Close()
	p.subs.Add(1)
	defer p.subs.Add(-1)
	flushed := make(chan struct{}, 1)
	p.log.Notify(flushed)
	defer p.log.StopNotify(flushed)
	heartbeat := time.NewTimer(heartbeatEvery)
	defer heartbeat.Stop()

	var b wire.ReplBatch
	var payload, frame []byte
	var advertised uint64
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		limit := p.log.DurableSeq()
		first := t.NextSeq()
		b.Records, err = t.Next(limit, b.Records[:0], streamChunkBytes)
		if err != nil {
			return err
		}
		if len(b.Records) == 0 && limit <= advertised {
			select {
			case <-stop:
				return nil
			case <-flushed:
				continue
			case <-heartbeat.C:
			}
		}
		b.Watermark = limit
		b.Traces = b.Traces[:0]
		if p.traceOf != nil {
			for seq := first; seq < t.NextSeq(); seq++ {
				if tr := p.traceOf(seq); tr != 0 {
					b.Traces = append(b.Traces, wire.ReplTrace{Seq: seq, Trace: tr})
				}
			}
		}
		payload = wire.AppendReplBatch(payload[:0], b)
		frame = wire.AppendFrame(frame[:0], id, wire.TReplBatch, payload)
		if _, err := w.Write(frame); err != nil {
			p.drops.Add(1)
			return err
		}
		advertised = limit
		heartbeat.Reset(heartbeatEvery)
	}
}
