package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"sihtm/internal/rng"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello, shard")
	buf := AppendFrame(nil, 42, TTxn, payload)
	if len(buf) != FrameOverhead+len(payload) {
		t.Fatalf("framed size %d, want %d", len(buf), FrameOverhead+len(payload))
	}
	id, typ, p, size, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || typ != TTxn || !bytes.Equal(p, payload) || size != len(buf) {
		t.Fatalf("ParseFrame = (%d, %v, %q, %d)", id, typ, p, size)
	}

	// Streaming read agrees.
	id, typ, p, _, err = ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || typ != TTxn || !bytes.Equal(p, payload) {
		t.Fatalf("ReadFrame = (%d, %v, %q)", id, typ, p)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	buf := AppendFrame(nil, 7, TStats, nil)
	id, typ, p, _, err := ParseFrame(buf)
	if err != nil || id != 7 || typ != TStats || len(p) != 0 {
		t.Fatalf("empty payload: (%d, %v, %q, %v)", id, typ, p, err)
	}
}

// withReserved returns a copy of the unflagged frame b with header
// byte i (18 or 19, "reserved (zero)") set to v and the CRC recomputed,
// so only the reserved-byte check can reject it.
func withReserved(b []byte, i int, v byte) []byte {
	c := append([]byte(nil), b...)
	c[i] = v
	binary.LittleEndian.PutUint32(c[len(c)-trailerBytes:], crc32.Checksum(c[:len(c)-trailerBytes], castagnoli))
	return c
}

// A frame whose reserved header bytes are not zero is a framing error,
// in place and on a stream, even when its CRC covers them.
func TestReservedHeaderBytesRejected(t *testing.T) {
	ok := AppendOpsFrame(nil, 3, []Op{{Kind: OpGet, Key: 1}})
	for _, i := range []int{18, 19} {
		for _, v := range []byte{0x01, 0x80, 0xff} {
			b := withReserved(ok, i, v)
			if _, _, _, _, _, _, err := ParseFrameT(b); !errors.Is(err, ErrBadFrame) {
				t.Errorf("byte %d = %#x: ParseFrameT err = %v, want ErrBadFrame", i, v, err)
			}
			if _, _, _, _, _, _, err := ReadFrameT(bytes.NewReader(b), nil); !errors.Is(err, ErrBadFrame) {
				t.Errorf("byte %d = %#x: ReadFrameT err = %v, want ErrBadFrame", i, v, err)
			}
		}
	}
	if _, _, _, _, _, _, err := ParseFrameT(withReserved(ok, 18, 0)); err != nil {
		t.Fatalf("re-sealed frame with zero reserved bytes: %v", err)
	}
}

func TestOpsRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpGet, Key: 1},
		{Kind: OpPut, Key: 2, Arg: 20},
		{Kind: OpDel, Key: 3},
		{Kind: OpScan, Key: 4, Arg: 16},
		{Kind: OpRMW, Key: 5, Arg: 1},
	}
	p := AppendOps(nil, ops)
	got, err := ParseOps(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("round trip lost ops: %d vs %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}
	// Validation: bad kind, oversized scan, mangled length.
	bad := AppendOps(nil, []Op{{Kind: numOpKinds, Key: 1}})
	if _, err := ParseOps(bad, nil); err == nil {
		t.Error("unknown op kind accepted")
	}
	bad = AppendOps(nil, []Op{{Kind: OpScan, Key: 1, Arg: MaxScanLen + 1}})
	if _, err := ParseOps(bad, nil); err == nil {
		t.Error("oversized scan accepted")
	}
	if _, err := ParseOps(p[:len(p)-1], nil); err == nil {
		t.Error("truncated op list accepted")
	}
}

func TestResultsRoundTrip(t *testing.T) {
	rs := []Result{{OK: true, Val: 9}, {OK: false}, {OK: true, Val: 1 << 60}}
	p := AppendResults(nil, rs)
	got, err := ParseResults(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if got[i] != rs[i] {
			t.Fatalf("result %d: %+v != %+v", i, got[i], rs[i])
		}
	}
	if _, err := ParseResults(p[:len(p)-2], nil); err == nil {
		t.Error("truncated result list accepted")
	}
}

func TestControlPayloadRoundTrip(t *testing.T) {
	st := ServerStats{System: "si-htm", Shards: 4, BatchMax: 32, Batches: 10, BatchedOps: 55}
	var got ServerStats
	if err := DecodeJSON(EncodeJSON(st), &got); err != nil {
		t.Fatal(err)
	}
	if got.System != "si-htm" || got.BatchedOps != 55 {
		t.Fatalf("stats round trip: %+v", got)
	}
	if err := DecodeJSON([]byte(`{"batch`), &got); err == nil {
		t.Error("mangled JSON accepted")
	}
}

// buildStream frames a deterministic pipelined request stream and
// returns the image plus each frame's end offset — the wire analogue of
// crashtest's logged history.
func buildStream(r *rng.Rand, frames int) (img []byte, bounds []int) {
	bounds = append(bounds, 0)
	for i := 0; i < frames; i++ {
		var payload []byte
		var typ Type
		switch r.Intn(3) {
		case 0:
			// The reserved code 0x06 with the JSON payload it once
			// carried: framing does not depend on the type.
			typ = 0x06
			payload = fmt.Appendf(nil, `{"batch_max":%d}`, 1+r.Intn(256))
		case 1:
			typ = TTxn
			ops := make([]Op, 1+r.Intn(8))
			for j := range ops {
				ops[j] = Op{Kind: OpKind(r.Intn(int(numOpKinds))), Key: r.Uint64(), Arg: uint64(r.Intn(16))}
			}
			payload = AppendOps(nil, ops)
		case 2:
			typ = TStats
		}
		img = AppendFrame(img, uint64(i+1), typ, payload)
		bounds = append(bounds, len(img))
	}
	return img, bounds
}

// drainStream reads frames until the stream ends or breaks, returning
// how many whole frames were accepted and the terminal error.
func drainStream(img []byte) (frames int, err error) {
	r := bytes.NewReader(img)
	var scratch []byte
	for {
		var e error
		_, _, _, scratch, e = ReadFrame(r, scratch)
		if e != nil {
			if e == io.EOF {
				return frames, nil
			}
			return frames, e
		}
		frames++
	}
}

// TestTornStream mirrors wal/crashtest for the wire codec: a valid
// pipelined stream is truncated at every byte offset and randomly
// corrupted (bit flips, zeroed spans, garbage tails), and the reader
// must accept exactly the whole frames that precede the damage — never
// a corrupt frame, never a panic, never a misparse that resynchronizes
// past garbage.
func TestTornStream(t *testing.T) {
	r := rng.New(1234)
	img, bounds := buildStream(r, 40)

	wholeFrames := func(n int) int {
		k := 0
		for k < len(bounds)-1 && bounds[k+1] <= n {
			k++
		}
		return k
	}

	// Truncation at every offset: all whole frames parse; a torn tail
	// ends the stream with an error unless the cut is on a boundary.
	for cut := 0; cut <= len(img); cut++ {
		got, err := drainStream(img[:cut])
		want := wholeFrames(cut)
		if got != want {
			t.Fatalf("cut %d: drained %d frames, want %d", cut, got, want)
		}
		onBoundary := bounds[want] == cut
		if onBoundary && err != nil {
			t.Fatalf("cut %d on frame boundary: unexpected error %v", cut, err)
		}
		if !onBoundary && err == nil {
			t.Fatalf("cut %d mid-frame: torn tail not detected", cut)
		}
	}

	// Random mutilation: bit flips, zeroed spans, garbage splices. The
	// reader must stop at or before the first damaged frame, and never
	// accept more frames than the image originally held.
	for round := 0; round < 400; round++ {
		mut := append([]byte(nil), img...)
		off := r.Intn(len(mut))
		switch r.Intn(3) {
		case 0: // single bit flip
			mut[off] ^= 1 << uint(r.Intn(8))
		case 1: // zeroed span
			end := off + 1 + r.Intn(64)
			if end > len(mut) {
				end = len(mut)
			}
			for i := off; i < end; i++ {
				mut[i] = 0
			}
		case 2: // garbage tail
			mut = mut[:off]
			for i := 0; i < 16; i++ {
				mut = append(mut, byte(r.Intn(256)))
			}
		}
		got, err := drainStream(mut)
		intact := wholeFrames(off) // frames entirely before the damage
		if got > len(bounds)-1 {
			t.Fatalf("round %d: drained %d frames from a %d-frame image", round, got, len(bounds)-1)
		}
		if got < intact {
			t.Fatalf("round %d: damage at %d lost intact frames: drained %d, want >= %d", round, off, got, intact)
		}
		// A mutation that struck inside the stream and was survivable
		// must have been either harmless (CRC collision is ~impossible)
		// or terminal.
		if got > intact && err == nil && got < len(bounds)-1 {
			t.Fatalf("round %d: reader resynchronized past damage at %d (drained %d)", round, off, got)
		}
	}
}

// FuzzParseFrame asserts the parser never panics and never accepts a
// frame whose re-encoding differs — CRC integrity as an invariant, the
// trace extension included.
func FuzzParseFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 1, 0x06, []byte(`{"batch_max":64}`)))
	f.Add(AppendOpsFrame(nil, 2, []Op{{Kind: OpRMW, Key: 3, Arg: 1}, {Kind: OpGet, Key: 9}}))
	f.Add([]byte("garbage"))
	f.Add(AppendOpsFrameT(nil, 4, 0xfeed, []Op{{Kind: OpScan, Key: 5, Arg: 8}}))
	f.Add(withReserved(AppendFrame(nil, 6, TStats, nil), 19, 0x01))
	f.Fuzz(func(t *testing.T, b []byte) {
		id, typ, flags, trace, payload, size, err := ParseFrameT(b)
		if err != nil {
			return
		}
		if size > len(b) {
			t.Fatalf("size %d beyond input %d", size, len(b))
		}
		re := AppendFrameT(nil, id, typ, flags, trace, payload)
		if !bytes.Equal(re, b[:size]) {
			t.Fatalf("accepted frame does not re-encode identically")
		}
	})
}

// FuzzReadFrame: the stream decoder accepts exactly what the in-place
// decoder accepts. Over a reader of the same bytes, ReadFrameT returns
// ParseFrameT's fields and consumes its size, or both reject: a short
// frame in place is io.EOF (nothing there) or io.ErrUnexpectedEOF on
// the stream, and any other rejection is the same error.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(AppendOpsFrame(nil, 2, []Op{{Kind: OpRMW, Key: 3, Arg: 1}, {Kind: OpGet, Key: 9}}))
	f.Add(AppendOpsFrameT(nil, 4, 0xfeed, []Op{{Kind: OpScan, Key: 5, Arg: 8}}))
	big := AppendFrame(nil, 5, TReply, make([]byte, 5000)) // outgrows the default scratch
	f.Add(big)
	f.Add(big[:len(big)-1])
	f.Add(withReserved(AppendFrame(nil, 6, TStats, nil), 18, 0x01))
	f.Fuzz(func(t *testing.T, b []byte) {
		id, typ, flags, trace, payload, size, perr := ParseFrameT(b)
		r := bytes.NewReader(b)
		rid, rtyp, rflags, rtrace, rpayload, _, rerr := ReadFrameT(r, nil)
		switch {
		case perr == ErrShortFrame:
			if rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
				t.Fatalf("in place: short frame; stream: %v", rerr)
			}
		case perr != nil:
			if rerr == nil || rerr.Error() != perr.Error() {
				t.Fatalf("in place: %v; stream: %v", perr, rerr)
			}
		case rerr != nil:
			t.Fatalf("in place: accepted; stream: %v", rerr)
		case rid != id || rtyp != typ || rflags != flags || rtrace != trace || !bytes.Equal(rpayload, payload):
			t.Fatalf("in place (%d %v %#x %#x %d bytes), stream (%d %v %#x %#x %d bytes)",
				id, typ, flags, trace, len(payload), rid, rtyp, rflags, rtrace, len(rpayload))
		case len(b)-r.Len() != size:
			t.Fatalf("stream consumed %d bytes of a %d-byte frame", len(b)-r.Len(), size)
		}
	})
}
