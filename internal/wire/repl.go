package wire

import (
	"encoding/binary"
	"fmt"
)

// Replication payload codecs. A leader ships committed WAL records to
// its followers as TReplBatch frames, and the records travel exactly as
// the log framed them (magic, seq, count, pairs, CRC — internal/wal), so
// the stream has no second encoding of a write set to keep in step with
// the log: this package carries the records section as opaque bytes and
// the follower decodes it with the WAL's own parser. What the payload
// adds is the leader's durable watermark, so a follower can publish how
// far behind it is even when a batch carries no records, and the trace
// list, which ties shipped sequences to the sampled client requests
// whose commits they carry.
//
// TReplBatch payload layout (all fields little-endian):
//
//	offset   size  field
//	0        8     watermark — the leader's highest fsynced sequence
//	8        4     ntraces
//	12       16·n  traces, each: seq u64, trace u64 (nonzero);
//	               seqs strictly increasing
//	12+16·n  ...   records — whole WAL-framed records, verbatim
//
// The header and the trace list have one valid encoding per value, so
// any payload ParseReplBatch accepts re-encodes byte-identically — the
// property FuzzParseReplFrame pins. The records section is validated
// record by record (magic, CRC, continuity) when the follower applies
// it.

const (
	replBatchHeader = 12 // watermark u64 + ntraces u32
	replTraceBytes  = 16 // seq u64 + trace u64
)

// ReplTrace ties one shipped record to the sampled client request its
// commit carried; the follower closes that request's replication span
// when it applies the record.
type ReplTrace struct {
	Seq, Trace uint64
}

// ReplBatch is the TReplBatch payload.
type ReplBatch struct {
	Watermark uint64
	// Traces lists, in sequence order, the shipped records that carry a
	// trace id; a record absent from it was unsampled.
	Traces []ReplTrace
	// Records is a run of whole WAL-framed records: consecutive
	// sequence numbers on a healthy stream, which the follower checks.
	Records []byte
}

// AppendReplSub encodes a TReplSub payload: the first sequence number
// the follower wants (its watermark + 1).
func AppendReplSub(p []byte, from uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], from)
	return append(p, b[:]...)
}

// ParseReplSub decodes a TReplSub payload.
func ParseReplSub(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: repl subscribe payload of %d bytes", ErrBadFrame, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// AppendReplBatch encodes a TReplBatch payload onto p.
func AppendReplBatch(p []byte, b ReplBatch) []byte {
	var hdr [replBatchHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], b.Watermark)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(b.Traces)))
	p = append(p, hdr[:]...)
	for _, t := range b.Traces {
		var tb [replTraceBytes]byte
		binary.LittleEndian.PutUint64(tb[0:], t.Seq)
		binary.LittleEndian.PutUint64(tb[8:], t.Trace)
		p = append(p, tb[:]...)
	}
	return append(p, b.Records...)
}

// ParseReplBatch decodes a TReplBatch payload, the trace list into
// traces (reused when capacity allows). The header and the trace list
// are parsed strictly: the count must fit the payload, sequences must
// strictly increase and every trace must be nonzero. Records aliases
// the rest of p.
func ParseReplBatch(p []byte, traces []ReplTrace) (ReplBatch, error) {
	if len(p) < replBatchHeader {
		return ReplBatch{}, fmt.Errorf("%w: repl batch payload of %d bytes", ErrBadFrame, len(p))
	}
	n := binary.LittleEndian.Uint32(p[8:])
	if int64(n) > int64((len(p)-replBatchHeader)/replTraceBytes) {
		return ReplBatch{}, fmt.Errorf("%w: repl batch claims %d traces in %d bytes", ErrBadFrame, n, len(p))
	}
	b := ReplBatch{Watermark: binary.LittleEndian.Uint64(p), Traces: traces[:0]}
	off := replBatchHeader
	for i := 0; i < int(n); i++ {
		t := ReplTrace{Seq: binary.LittleEndian.Uint64(p[off:]), Trace: binary.LittleEndian.Uint64(p[off+8:])}
		if t.Trace == 0 || i > 0 && t.Seq <= b.Traces[i-1].Seq {
			return ReplBatch{}, fmt.Errorf("%w: repl trace %d (seq %d, trace %d) out of order or zero", ErrBadFrame, i, t.Seq, t.Trace)
		}
		b.Traces = append(b.Traces, t)
		off += replTraceBytes
	}
	b.Records = p[off:]
	return b, nil
}

// ReplStats is the replication slice of ServerStats (and the
// TReplPromote reply payload): the node's role and how far its log or
// replay has progressed.
type ReplStats struct {
	// Role is "leader", "follower" or "promoted".
	Role string `json:"role"`
	// DurableSeq is a leader's highest fsynced sequence number.
	DurableSeq uint64 `json:"durable_seq,omitempty"`
	// Watermark is a follower's highest applied sequence number: reads
	// served by the node observe exactly commits 1..Watermark.
	Watermark uint64 `json:"watermark,omitempty"`
	// LeaderSeq is the durable watermark the leader last advertised to
	// this follower (Watermark lag = LeaderSeq - Watermark).
	LeaderSeq uint64 `json:"leader_seq,omitempty"`
	// Subscribers counts a leader's live replication streams.
	Subscribers int `json:"subscribers,omitempty"`
	// Reconnects counts a follower's stream re-establishments.
	Reconnects uint64 `json:"reconnects,omitempty"`
}
