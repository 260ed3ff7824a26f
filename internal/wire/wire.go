// Package wire is the binary protocol of the networked service layer:
// length-prefixed, CRC-framed messages (in the mould of the WAL's
// record framing). The data plane is one request type, TXN: an op list
// over the workload engine's key-value vocabulary (get, put, del, scan,
// rmw), executed atomically — a single operation is a one-op TXN. The
// control plane carries server statistics, the quiescent invariant
// check and replication. Type codes 0x01–0x04 (once single-op point
// requests) and 0x06 (once a live reconfiguration of the admission
// knobs, which are now set at server start only) are reserved; a server
// answers them, like any unknown type, with TErr.
//
// Frame layout (all fields little-endian):
//
//	offset  size  field
//	0       4     magic  = frameMagic ("SIHW")
//	4       4     length — payload bytes n (extensions excluded)
//	8       8     id     — request id, echoed on the response; clients
//	              pipeline many frames per connection and demultiplex
//	              responses by id
//	16      1     type   — message Type
//	17      1     flags  — frame extensions (zero on legacy frames)
//	18      2     reserved (zero)
//	20      n     payload (type-specific)
//	20+n    8     trace  — trace id, present only when FlagTrace is set
//	...     4     crc    — CRC-32C (Castagnoli) over everything before it
//
// The flags byte was reserved (and written as zero) before the tracing
// extension, so every unflagged frame is byte-identical to the legacy
// encoding. A flagged frame carries its extensions *after* the payload
// and *before* the CRC, excluded from the length field; receivers that
// understand flags skip them structurally, receivers that don't reject
// the frame at the CRC check — extension bits are therefore only set
// toward peers that advertised them (here: within one repo version).
// Unknown flag bits are a framing error.
//
// The framing is self-validating: a receiver accepts a frame only when
// magic, length bound, flag bits, the zero reserved bytes and CRC all
// check out, so a torn or corrupted stream is detected at the first
// damaged frame instead of being misparsed — mirroring the WAL's
// torn-tail rule. Framing errors are fatal to the connection (there is
// no resynchronization).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	frameMagic = uint32(0x53494857) // "SIHW"
	// headerBytes is magic + length + id + type + reserved.
	headerBytes  = 20
	trailerBytes = 4
	// FrameOverhead is the framed size of an empty payload.
	FrameOverhead = headerBytes + trailerBytes

	// MaxPayload bounds a frame's payload; larger lengths are treated as
	// corruption. Generous for the control plane's JSON and for the
	// largest admissible TXN.
	MaxPayload = 1 << 20
	// MaxTxnOps bounds the operations of a single TXN request.
	MaxTxnOps = 1 << 12
	// MaxScanLen bounds one SCAN's entry count.
	MaxScanLen = 1 << 12
)

// Frame flag bits (header byte 17).
const (
	// FlagTrace marks a frame carrying an 8-byte trace id between the
	// payload and the CRC. The id propagates a request's identity across
	// process boundaries: loadgen → server on TTxn, echoed back on
	// TReply. (Leader → follower, ids ride the TReplBatch trace list.)
	FlagTrace uint8 = 0x01

	// flagsKnown is every bit this version understands; anything else is
	// corruption or a future version this receiver cannot frame.
	flagsKnown = FlagTrace

	// traceExtBytes is the size of the FlagTrace extension.
	traceExtBytes = 8
)

// castagnoli is the CRC-32C table shared with the WAL framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Type tags a message. Requests and responses share the frame format;
// response types have the high bit set.
type Type uint8

// The message vocabulary. Codes 0x01–0x04 and 0x06 are reserved.
const (
	// TTxn is the data-plane request: a transaction of one or more ops,
	// executed atomically; payload: an op list (AppendOps).
	TTxn Type = 0x05
	// TStats requests server statistics; empty payload. Reply payload:
	// JSON ServerStats.
	TStats Type = 0x07
	// TCheck runs the backend's structural invariant check quiescently;
	// empty payload.
	TCheck Type = 0x08
	// TReplSub subscribes the connection to the leader's replication
	// stream; payload: the first sequence number wanted (AppendReplSub).
	// The subscription hijacks the connection: it must be the only
	// request ever sent on it, and the server answers with an unbounded
	// sequence of TReplBatch frames echoing the subscribe id.
	TReplSub Type = 0x09
	// TReplPromote asks a follower to stop replicating and become a
	// serving leader (catching up from the dead leader's log first);
	// empty payload. Reply payload: JSON ReplStats at promotion.
	TReplPromote Type = 0x0a

	// TReply answers any data-plane request; payload: a result list
	// (AppendResults), one entry per op. Control-plane replies reuse
	// TReply with a type-specific payload (JSON for TStats and
	// TReplPromote, empty for TCheck).
	TReply Type = 0x81
	// TErr reports a failed request; payload: UTF-8 message.
	TErr Type = 0x82
	// TReplBatch is one replication-stream message; payload: a watermark,
	// a trace list and zero or more WAL-framed redo records
	// (AppendReplBatch).
	TReplBatch Type = 0x83
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TTxn:
		return "TXN"
	case TStats:
		return "STATS"
	case TCheck:
		return "CHECK"
	case TReplSub:
		return "REPLSUB"
	case TReplPromote:
		return "REPLPROMOTE"
	case TReply:
		return "REPLY"
	case TErr:
		return "ERR"
	case TReplBatch:
		return "REPLBATCH"
	default:
		return fmt.Sprintf("Type(0x%02x)", uint8(t))
	}
}

// ErrBadFrame reports a framing violation (magic, length bound or CRC);
// the connection cannot be trusted past it.
var ErrBadFrame = errors.New("wire: bad frame")

// AppendFrame encodes one frame onto buf and returns the extended
// slice. Allocation-free when buf has capacity.
func AppendFrame(buf []byte, id uint64, t Type, payload []byte) []byte {
	start := len(buf)
	buf = appendHeader(buf, id, t, 0, len(payload))
	buf = append(buf, payload...)
	return sealFrame(buf, start)
}

// AppendFrameT encodes one frame carrying flag extensions. A trace id
// is appended (and FlagTrace implied) whenever trace is nonzero; a zero
// trace with zero extra flags degenerates to the legacy encoding
// byte-for-byte. Allocation-free when buf has capacity.
func AppendFrameT(buf []byte, id uint64, t Type, flags uint8, trace uint64, payload []byte) []byte {
	if trace != 0 {
		flags |= FlagTrace
	}
	start := len(buf)
	buf = appendHeader(buf, id, t, flags, len(payload))
	buf = append(buf, payload...)
	return sealFrameT(buf, start, flags, trace)
}

// appendHeader encodes a frame header claiming an n-byte payload.
func appendHeader(buf []byte, id uint64, t Type, flags uint8, n int) []byte {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
	binary.LittleEndian.PutUint64(hdr[8:], id)
	hdr[16] = byte(t)
	hdr[17] = flags
	return append(buf, hdr[:]...)
}

// sealFrame finishes the frame whose header starts at start: the length
// field is patched to cover whatever was appended after the header, and
// the CRC trailer is computed over the whole frame. Splitting
// header/seal lets payload codecs encode straight into the framed
// buffer (AppendOpsFrame, AppendResultsFrame) with no intermediate
// payload slice.
func sealFrame(buf []byte, start int) []byte {
	return sealFrameExt(buf, start, 0)
}

// sealFrameT appends the extensions the flags announce (currently: the
// FlagTrace id) and seals the frame with the length field covering the
// payload only.
func sealFrameT(buf []byte, start int, flags uint8, trace uint64) []byte {
	ext := 0
	if flags&FlagTrace != 0 {
		var tb [traceExtBytes]byte
		binary.LittleEndian.PutUint64(tb[:], trace)
		buf = append(buf, tb[:]...)
		ext = traceExtBytes
	}
	return sealFrameExt(buf, start, ext)
}

// sealFrameExt seals a frame whose last ext appended bytes are flag
// extensions rather than payload: the length field must exclude them.
func sealFrameExt(buf []byte, start, ext int) []byte {
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(buf)-start-headerBytes-ext))
	crc := crc32.Checksum(buf[start:], castagnoli)
	var tr [trailerBytes]byte
	binary.LittleEndian.PutUint32(tr[:], crc)
	return append(buf, tr[:]...)
}

// extBytes returns the extension size the flags announce, or an error
// on unknown bits.
func extBytes(flags uint8) (int, error) {
	if flags&^flagsKnown != 0 {
		return 0, fmt.Errorf("%w: unknown flag bits 0x%02x", ErrBadFrame, flags&^flagsKnown)
	}
	if flags&FlagTrace != 0 {
		return traceExtBytes, nil
	}
	return 0, nil
}

// ParseFrame decodes the frame at the head of b. size is the framed
// length consumed on success; payload aliases b. An invalid prefix
// (magic, length bound, CRC) returns an ErrBadFrame-wrapped error; an
// otherwise-valid but incomplete frame returns ErrShortFrame so stream
// readers can wait for more bytes.
func ParseFrame(b []byte) (id uint64, t Type, payload []byte, size int, err error) {
	id, t, _, _, payload, size, err = ParseFrameT(b)
	return id, t, payload, size, err
}

// ParseFrameT is ParseFrame plus the flag extensions: it additionally
// returns the frame's flags byte and the trace id (zero when FlagTrace
// is unset). Unknown flag bits are an ErrBadFrame.
func ParseFrameT(b []byte) (id uint64, t Type, flags uint8, trace uint64, payload []byte, size int, err error) {
	size, err = frameSize(b)
	if err != nil {
		return 0, 0, 0, 0, nil, 0, err
	}
	if len(b) < size {
		return 0, 0, 0, 0, nil, 0, ErrShortFrame
	}
	want := binary.LittleEndian.Uint32(b[size-trailerBytes:])
	if crc32.Checksum(b[:size-trailerBytes], castagnoli) != want {
		return 0, 0, 0, 0, nil, 0, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(b[4:])
	flags = b[17]
	if flags&FlagTrace != 0 {
		trace = binary.LittleEndian.Uint64(b[headerBytes+int(n):])
	}
	id = binary.LittleEndian.Uint64(b[8:])
	t = Type(b[16])
	return id, t, flags, trace, b[headerBytes : headerBytes+int(n)], size, nil
}

// frameSize is the header check every decoder shares: it validates the
// magic, the length bound, the flag bits and the zero reserved bytes of
// the header at the head of b and returns the framed size the header
// announces.
func frameSize(b []byte) (int, error) {
	if len(b) < headerBytes {
		return 0, ErrShortFrame
	}
	if binary.LittleEndian.Uint32(b[0:]) != frameMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(b[4:])
	if n > MaxPayload {
		return 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, n, MaxPayload)
	}
	ext, err := extBytes(b[17])
	if err != nil {
		return 0, err
	}
	if b[18]|b[19] != 0 {
		return 0, fmt.Errorf("%w: reserved header bytes %#x %#x", ErrBadFrame, b[18], b[19])
	}
	return headerBytes + int(n) + ext + trailerBytes, nil
}

// ErrShortFrame marks an incomplete (but so-far-valid) frame prefix: a
// stream consumer should wait for more bytes rather than fail.
var ErrShortFrame = errors.New("wire: short frame")

// ReadFrame reads exactly one frame from r. The returned payload
// aliases buf (grown as needed); callers that retain it must copy.
// Frame validation failures return ErrBadFrame-wrapped errors; transport
// failures return the underlying I/O error (io.EOF only at a clean
// frame boundary).
func ReadFrame(r io.Reader, buf []byte) (id uint64, t Type, payload, nbuf []byte, err error) {
	id, t, _, _, payload, nbuf, err = ReadFrameT(r, buf)
	return id, t, payload, nbuf, err
}

// ReadFrameT is ReadFrame plus the flag extensions: it additionally
// returns the frame's flags byte and the trace id (zero when FlagTrace
// is unset). Unknown flag bits are an ErrBadFrame. It reads the header,
// then as many bytes as the header announces, and decodes the frame
// with ParseFrameT: a frame read from a stream is accepted exactly when
// the same bytes parse in place.
func ReadFrameT(r io.Reader, buf []byte) (id uint64, t Type, flags uint8, trace uint64, payload, nbuf []byte, err error) {
	if cap(buf) < headerBytes {
		buf = make([]byte, 0, 4096)
	}
	hdr := buf[:headerBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, 0, 0, nil, buf, err
	}
	size, err := frameSize(hdr)
	if err != nil {
		return 0, 0, 0, 0, nil, buf, err
	}
	if cap(buf) < size {
		nb := make([]byte, size, size+size/2)
		copy(nb, hdr)
		buf = nb
	}
	frame := buf[:size]
	if _, err := io.ReadFull(r, frame[headerBytes:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, 0, 0, nil, buf, err
	}
	id, t, flags, trace, payload, _, err = ParseFrameT(frame)
	return id, t, flags, trace, payload, buf, err
}
