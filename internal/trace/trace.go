// Package trace is the cluster-wide structured tracing layer: 64-bit
// request ids propagated loadgen → server → WAL → replication, with
// fixed-size per-stage spans recorded into per-process lock-free rings.
//
// The design constraints come from the hot path it instruments:
//
//   - Zero allocations. A Span is a fixed-size value with no pointers;
//     recording one is a handful of atomic stores into a preallocated
//     ring slot. The server/client AllocsPerRun pins hold with sampling
//     enabled.
//   - No dependencies. Only the standard library.
//   - Head-based sampling. The client decides at send time whether a
//     request carries a trace id (rate-based, default 1 in
//     DefaultSampleEvery); the server additionally self-assigns ids to
//     unsampled requests that cross the --trace-slow threshold, marked
//     with ServerOriginBit so a reader knows the client half is absent.
//
// A trace id is nonzero; zero everywhere means "unsampled". Ids are
// generated by a seeded splitmix64 sequence with ServerOriginBit clear;
// the bit is reserved for server-assigned ids.
package trace

import (
	"fmt"
	"sync/atomic"
)

// Kind enumerates span types, ordered roughly by a request's lifecycle.
type Kind uint8

// The span vocabulary. Request-scoped spans (nonzero Trace) share the
// request's trace id; process-scoped spans (KFsync) are keyed by
// sequence number and joined to requests at query time.
const (
	// KClient is the client's whole round trip: request sent to reply
	// received (RemoteBackend.EnableTracing).
	KClient Kind = iota
	// KAdmit is the server admission stage: frame decoded to batch
	// execution start.
	KAdmit
	// KExec is the batch execution stage: HTM transaction(s) including
	// commit-hook WAL append. Arg carries the batch's op count.
	KExec
	// KAck is the durability ack stage: reply encoded to released by
	// the group-commit fsync covering the log position the reply waits
	// for (Seq). Absent on volatile servers and replicas, whose replies
	// are never parked.
	KAck
	// KFlush is the reply flush stage: reply encoded to socket write.
	KFlush
	// KRequest is the server-side total (admission to socket write) —
	// the span whose Dur matches the service-latency histogram.
	KRequest
	// KFsync is one group-commit fsync (process-scoped: Trace is zero,
	// Seq is the highest sequence made durable, Arg the records
	// covered).
	KFsync
	// KReplApply is a follower's replay of one committed record: stream
	// receive to watermark publish. Seq is the record's sequence, Arg
	// the watermark published.
	KReplApply

	NumKinds
)

// String implements fmt.Stringer; the names are the wire/JSONL
// vocabulary ("fsync", "repl_apply", ...) that docs and CI grep for.
func (k Kind) String() string {
	switch k {
	case KClient:
		return "client"
	case KAdmit:
		return "admit"
	case KExec:
		return "exec"
	case KAck:
		return "ack"
	case KFlush:
		return "flush"
	case KRequest:
		return "request"
	case KFsync:
		return "fsync"
	case KReplApply:
		return "repl_apply"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindByName inverts String for the JSONL parser; unknown names return
// NumKinds.
func KindByName(s string) Kind {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == s {
			return k
		}
	}
	return NumKinds
}

// Span is one recorded stage. Fixed-size and pointer-free so recording
// is allocation-free and a ring slot can hold it torn-write-safely.
type Span struct {
	// Trace is the request id (zero for process-scoped spans).
	Trace uint64
	// Seq is the commit sequence the span refers to (KAck, KFsync,
	// KReplApply; zero elsewhere).
	Seq uint64
	// Kind is the stage.
	Kind Kind
	// Start is the span's start, nanoseconds since the Unix epoch.
	Start int64
	// Dur is the span's duration in nanoseconds.
	Dur int64
	// Arg is kind-specific: batch ops (KExec), records fsynced (KFsync),
	// watermark published (KReplApply).
	Arg int64
}

// ServerOriginBit marks a trace id the server assigned itself (an
// unsampled request that crossed the slow threshold): the client half
// of such a trace does not exist.
const ServerOriginBit = uint64(1) << 63

// DefaultSampleEvery is the default head-based sampling rate: one
// traced request per this many sent.
const DefaultSampleEvery = 64

// IDGen generates trace ids: a seeded splitmix64 sequence, never zero,
// ServerOriginBit clear. Safe for concurrent use.
type IDGen struct {
	state atomic.Uint64
}

// NewIDGen seeds a generator. Distinct processes should use distinct
// seeds (wall clock, pid) so merged traces don't collide.
func NewIDGen(seed uint64) *IDGen {
	g := &IDGen{}
	g.state.Store(seed)
	return g
}

// Next returns the next id.
func (g *IDGen) Next() uint64 {
	for {
		z := g.state.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z = (z ^ (z >> 31)) &^ ServerOriginBit
		if z != 0 {
			return z
		}
	}
}

// Sampler makes the head-based sampling decision: Sample reports true
// once per every calls. every <= 0 disables sampling (never true);
// every == 1 traces everything. Safe for concurrent use.
type Sampler struct {
	every uint32
	n     atomic.Uint32
}

// NewSampler builds a sampler tracing one request in every.
func NewSampler(every int) *Sampler {
	if every < 0 {
		every = 0
	}
	return &Sampler{every: uint32(every)}
}

// Sample reports whether this request should carry a trace id.
func (s *Sampler) Sample() bool {
	if s == nil || s.every == 0 {
		return false
	}
	if s.every == 1 {
		return true
	}
	return s.n.Add(1)%s.every == 0
}
