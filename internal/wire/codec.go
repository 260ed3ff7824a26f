package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"sihtm/internal/stats"
)

// OpKind enumerates the primitive operations of the data plane. They
// mirror the workload engine's vocabulary; OpRMW exists so a
// read-modify-write executes entirely server-side, inside the same
// transaction as the rest of the batch, instead of requiring a
// round-trip between the read and the dependent write.
type OpKind uint8

// The op vocabulary.
const (
	// OpGet reads Key; result (found, value).
	OpGet OpKind = iota
	// OpPut upserts Key ← Arg; result (wasNew, Arg).
	OpPut
	// OpDel removes Key; result (wasPresent, 0).
	OpDel
	// OpScan visits Arg entries from Key onward; result (true, seen).
	OpScan
	// OpRMW reads Key and upserts Key ← read+Arg (read = 0 when absent);
	// result (true, new value).
	OpRMW

	numOpKinds
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// ReadOnly reports whether the op performs no shared writes — a batch
// of read-only ops executes as one tm.KindReadOnly transaction and
// rides SI-HTM's uninstrumented fast path even over the network.
func (k OpKind) ReadOnly() bool { return k == OpGet || k == OpScan }

// MayInsert reports whether the op can consume a fresh node (the
// executor's Session.Prepare sizing).
func (k OpKind) MayInsert() bool { return k == OpPut || k == OpRMW }

// Op is one data-plane operation. Arg is the value for OpPut, the delta
// for OpRMW, the entry count for OpScan, and unused otherwise.
type Op struct {
	Kind OpKind
	Key  uint64
	Arg  uint64
}

// Result is one op's outcome. OK is "found" for OpGet, "was new" for
// OpPut, "was present" for OpDel and always true for OpScan/OpRMW; Val
// carries the read value, the written value, or the scan count.
type Result struct {
	OK  bool
	Val uint64
}

// opBytes is the encoded size of one op: kind u8 + key u64 + arg u64.
const opBytes = 17

// resultBytes is the encoded size of one result: ok u8 + val u64.
const resultBytes = 9

// AppendOps encodes an op list (count u32, then ops) onto p.
func AppendOps(p []byte, ops []Op) []byte {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(ops)))
	p = append(p, cnt[:]...)
	for _, op := range ops {
		var b [opBytes]byte
		b[0] = byte(op.Kind)
		binary.LittleEndian.PutUint64(b[1:], op.Key)
		binary.LittleEndian.PutUint64(b[9:], op.Arg)
		p = append(p, b[:]...)
	}
	return p
}

// ParseOps decodes an op list into dst (reused when capacity allows),
// validating kinds, the op-count bound and scan lengths.
func ParseOps(p []byte, dst []Op) ([]Op, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: truncated op list", ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(p)
	if n > MaxTxnOps {
		return nil, fmt.Errorf("%w: %d ops exceeds %d", ErrBadFrame, n, MaxTxnOps)
	}
	if len(p) != 4+int(n)*opBytes {
		return nil, fmt.Errorf("%w: op list length %d for %d ops", ErrBadFrame, len(p), n)
	}
	dst = dst[:0]
	for i := 0; i < int(n); i++ {
		b := p[4+i*opBytes:]
		op := Op{
			Kind: OpKind(b[0]),
			Key:  binary.LittleEndian.Uint64(b[1:]),
			Arg:  binary.LittleEndian.Uint64(b[9:]),
		}
		if op.Kind >= numOpKinds {
			return nil, fmt.Errorf("%w: unknown op kind %d", ErrBadFrame, b[0])
		}
		if op.Kind == OpScan && op.Arg > MaxScanLen {
			return nil, fmt.Errorf("%w: scan length %d exceeds %d", ErrBadFrame, op.Arg, MaxScanLen)
		}
		dst = append(dst, op)
	}
	return dst, nil
}

// AppendOpsFrame encodes a complete TTxn frame carrying ops directly
// onto buf — equivalent to AppendFrame(buf, id, TTxn, AppendOps(nil,
// ops)) without the intermediate payload slice. Allocation-free when
// buf has capacity; this is the client hot path's encoder.
func AppendOpsFrame(buf []byte, id uint64, ops []Op) []byte {
	return AppendOpsFrameT(buf, id, 0, ops)
}

// AppendOpsFrameT is AppendOpsFrame with a trace id: nonzero trace sets
// FlagTrace and rides the frame's trace extension, zero produces the
// legacy encoding byte-for-byte. Allocation-free when buf has capacity.
func AppendOpsFrameT(buf []byte, id, trace uint64, ops []Op) []byte {
	var flags uint8
	if trace != 0 {
		flags = FlagTrace
	}
	start := len(buf)
	buf = appendHeader(buf, id, TTxn, flags, 0)
	buf = AppendOps(buf, ops)
	return sealFrameT(buf, start, flags, trace)
}

// AppendResults encodes a result list (count u32, then results) onto p.
func AppendResults(p []byte, rs []Result) []byte {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(rs)))
	p = append(p, cnt[:]...)
	for _, r := range rs {
		var b [resultBytes]byte
		if r.OK {
			b[0] = 1
		}
		binary.LittleEndian.PutUint64(b[1:], r.Val)
		p = append(p, b[:]...)
	}
	return p
}

// AppendResultsFrame encodes a complete TReply frame carrying rs
// directly onto buf — the server hot path's encoder, pairing with
// AppendOpsFrame. Allocation-free when buf has capacity.
func AppendResultsFrame(buf []byte, id uint64, rs []Result) []byte {
	return AppendResultsFrameT(buf, id, 0, rs)
}

// AppendResultsFrameT is AppendResultsFrame with a trace id echoed back
// to the client (zero trace = legacy encoding). The echo lets an
// open-loop receiver attribute the client-side span without holding
// per-request state. Allocation-free when buf has capacity.
func AppendResultsFrameT(buf []byte, id, trace uint64, rs []Result) []byte {
	var flags uint8
	if trace != 0 {
		flags = FlagTrace
	}
	start := len(buf)
	buf = appendHeader(buf, id, TReply, flags, 0)
	buf = AppendResults(buf, rs)
	return sealFrameT(buf, start, flags, trace)
}

// ParseResults decodes a result list into dst.
func ParseResults(p []byte, dst []Result) ([]Result, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: truncated result list", ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(p)
	if n > MaxTxnOps {
		return nil, fmt.Errorf("%w: %d results exceeds %d", ErrBadFrame, n, MaxTxnOps)
	}
	if len(p) != 4+int(n)*resultBytes {
		return nil, fmt.Errorf("%w: result list length %d for %d results", ErrBadFrame, len(p), n)
	}
	dst = dst[:0]
	for i := 0; i < int(n); i++ {
		b := p[4+i*resultBytes:]
		dst = append(dst, Result{OK: b[0] != 0, Val: binary.LittleEndian.Uint64(b[1:])})
	}
	return dst, nil
}

// Ctrl is the TCtrl payload: live server reconfiguration. Zero fields
// mean "leave unchanged".
type Ctrl struct {
	// BatchMax sets the admission stage's per-transaction op bound — the
	// capacity knob the batch-window sweep turns.
	BatchMax int `json:"batch_max,omitempty"`
	// AdmitWaitUs sets the admission grace period in microseconds: how
	// long an executor holding a non-full batch waits for more pipelined
	// requests before committing. Positive sets, negative clears to
	// zero, zero keeps the current value.
	AdmitWaitUs int `json:"admit_wait_us,omitempty"`
	// P99TargetUs sets the adaptive admission controller's server-side
	// p99 service-latency target in microseconds, starting the
	// controller if it is not running. Negative stops the controller
	// (the knobs freeze at their converged values), zero keeps the
	// current state. While the controller runs, it owns BatchMax and
	// AdmitWaitUs: manual settings in the same Ctrl apply first and are
	// then adjusted from.
	P99TargetUs int `json:"p99_target_us,omitempty"`
}

// ServerStats is the TStats reply payload: everything a load generator
// needs to label and difference a measurement window.
type ServerStats struct {
	// System is the concurrency control the server runs ("si-htm", ...).
	System string `json:"system"`
	// Scenario and Scale describe the hosted workload build, so a remote
	// load generator can reconstruct the matching Spec. BaseDigest is the
	// digest of that build's base image, which a follower must match.
	Scenario   string `json:"scenario,omitempty"`
	Scale      string `json:"scale,omitempty"`
	BaseDigest string `json:"base_digest,omitempty"`
	// Shards is the executor count; BatchMax and AdmitWaitUs the current
	// admission bound and grace period.
	Shards      int `json:"shards"`
	BatchMax    int `json:"batch_max"`
	AdmitWaitUs int `json:"admit_wait_us,omitempty"`
	// P99TargetUs is the adaptive admission controller's p99 target
	// (zero when the controller is off); CtrlEpochs counts completed
	// control intervals and CtrlAdjusts the ones that changed a knob.
	// Differencing CtrlAdjusts across a window tells a load generator
	// whether the controller has converged or is still hunting.
	P99TargetUs int    `json:"p99_target_us,omitempty"`
	CtrlEpochs  uint64 `json:"ctrl_epochs,omitempty"`
	CtrlAdjusts uint64 `json:"ctrl_adjusts,omitempty"`
	// Durable reports whether a WAL/checkpoint store backs the server.
	Durable bool `json:"durable,omitempty"`
	// Repl describes the server's place in a replicated cluster (nil on
	// a standalone node).
	Repl *ReplStats `json:"repl,omitempty"`

	// Stats is the server-side collector snapshot: commits count
	// batches (one transaction per batch), aborts follow the paper's
	// taxonomy. Clients difference two snapshots for a window.
	Stats stats.Stats `json:"stats"`
	// Batches and BatchedOps count executed batches and the ops they
	// carried; their ratio is the achieved batch size.
	Batches    uint64 `json:"batches"`
	BatchedOps uint64 `json:"batched_ops"`
	// Hist is the per-op service-latency histogram (admission to reply
	// encode).
	Hist stats.HistogramSnapshot `json:"hist"`
	// Telemetry carries the deep-telemetry counters PR 8 added (nil from
	// servers predating it). Clients difference two snapshots the same
	// way they difference Stats and Hist.
	Telemetry *TelemetryStats `json:"telemetry,omitempty"`
}

// TelemetryStats is the deep-telemetry slice of a TStats reply: the
// same counters the /metrics endpoint scrapes, shipped through the wire
// control plane so a client can difference them over its measurement
// window without an HTTP round trip.
type TelemetryStats struct {
	// FramesIn and FramesOut count wire frames across all connections.
	FramesIn  uint64 `json:"frames_in"`
	FramesOut uint64 `json:"frames_out"`
	// AdmitWaitHist is the admission-wait stage histogram (arrival to
	// batch execution start); FlushHist the reply-flush stage (reply
	// encoded to socket write).
	AdmitWaitHist stats.HistogramSnapshot `json:"admit_wait_hist"`
	FlushHist     stats.HistogramSnapshot `json:"flush_hist"`
	// WAL counters and histograms (zero/empty on non-durable servers).
	WalRecords  uint64                  `json:"wal_records,omitempty"`
	WalBytes    uint64                  `json:"wal_bytes,omitempty"`
	WalFsyncs   uint64                  `json:"wal_fsyncs,omitempty"`
	FsyncHist   stats.HistogramSnapshot `json:"fsync_hist,omitzero"`
	AckWaitHist stats.HistogramSnapshot `json:"ack_wait_hist,omitzero"`
}

// EncodeJSON marshals a control-plane payload (Ctrl, ServerStats).
func EncodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Both payload types marshal unconditionally.
		panic(fmt.Sprintf("wire: control payload: %v", err))
	}
	return b
}

// DecodeJSON unmarshals a control-plane payload.
func DecodeJSON(p []byte, v any) error {
	if err := json.Unmarshal(p, v); err != nil {
		return fmt.Errorf("%w: control payload: %v", ErrBadFrame, err)
	}
	return nil
}
