package wire

import (
	"bytes"
	"testing"

	"sihtm/internal/race"
)

// The trace frame extension's contract: zero trace degenerates to the
// legacy encoding byte-for-byte, nonzero trace survives both parse
// paths, and unknown flag bits are a framing error.

func TestTraceFrameRoundTrip(t *testing.T) {
	ops := []Op{{Kind: OpPut, Key: 1, Arg: 2}, {Kind: OpGet, Key: 3}}

	// Zero trace: byte-identical to the legacy encoder.
	legacy := AppendOpsFrame(nil, 42, ops)
	if got := AppendOpsFrameT(nil, 42, 0, ops); !bytes.Equal(got, legacy) {
		t.Fatal("AppendOpsFrameT with zero trace diverges from the legacy encoding")
	}
	if got := AppendFrameT(nil, 42, TTxn, 0, 0, AppendOps(nil, ops)); !bytes.Equal(got, legacy) {
		t.Fatal("AppendFrameT with zero trace diverges from the legacy encoding")
	}

	// Nonzero trace: both parse paths surface it; the legacy parser
	// still decodes id/type/payload.
	const trace = uint64(0xdeadbeefcafe)
	framed := AppendOpsFrameT(nil, 42, trace, ops)
	if len(framed) != len(legacy)+traceExtBytes {
		t.Fatalf("traced frame is %d bytes, want legacy+%d = %d", len(framed), traceExtBytes, len(legacy)+traceExtBytes)
	}
	id, typ, flags, tr, payload, size, err := ParseFrameT(framed)
	if err != nil || id != 42 || typ != TTxn || flags != FlagTrace || tr != trace || size != len(framed) {
		t.Fatalf("ParseFrameT: id=%d type=%v flags=%#x trace=%#x size=%d err=%v", id, typ, flags, tr, size, err)
	}
	if back, err := ParseOps(payload, nil); err != nil || len(back) != len(ops) {
		t.Fatalf("traced payload: %d ops err=%v", len(back), err)
	}
	if id, typ, _, _, err := ParseFrame(framed); err != nil || id != 42 || typ != TTxn {
		t.Fatalf("legacy ParseFrame on traced frame: id=%d type=%v err=%v", id, typ, err)
	}

	id, typ, flags, tr, _, _, err = ReadFrameT(bytes.NewReader(framed), nil)
	if err != nil || id != 42 || typ != TTxn || flags != FlagTrace || tr != trace {
		t.Fatalf("ReadFrameT: id=%d type=%v flags=%#x trace=%#x err=%v", id, typ, flags, tr, err)
	}

	// Reply echo.
	rs := []Result{{OK: true, Val: 9}}
	reply := AppendResultsFrameT(nil, 42, trace, rs)
	if _, typ, _, tr, _, _, err := ParseFrameT(reply); err != nil || typ != TReply || tr != trace {
		t.Fatalf("reply echo: type=%v trace=%#x err=%v", typ, tr, err)
	}
	if got := AppendResultsFrameT(nil, 42, 0, rs); !bytes.Equal(got, AppendResultsFrame(nil, 42, rs)) {
		t.Fatal("AppendResultsFrameT with zero trace diverges from the legacy encoding")
	}
}

func TestUnknownFlagBitsRejected(t *testing.T) {
	frame := AppendFrame(nil, 1, TTxn, AppendOps(nil, nil))
	// 0x02 was the retired per-record trace layout of TReplBatch.
	for _, bit := range []byte{0x80, 0x02} {
		frame[17] = bit
		// Re-seal so only the flag byte is wrong, not the CRC.
		frame = sealFrameExt(frame[:len(frame)-trailerBytes], 0, 0)
		if _, _, _, _, _, _, err := ParseFrameT(frame); err == nil {
			t.Fatalf("unknown flag bits %#x accepted", bit)
		}
		if _, _, _, _, _, _, err := ReadFrameT(bytes.NewReader(frame), nil); err == nil {
			t.Fatalf("unknown flag bits %#x accepted by the stream reader", bit)
		}
	}
}

// TestReplBatchTracedRoundTrip: trace ids ride the batch's trace list,
// sparse (unsampled records are simply absent), decoded into the
// caller's buffer without reallocating it once it is large enough.
func TestReplBatchTracedRoundTrip(t *testing.T) {
	b := ReplBatch{
		Watermark: 13,
		Traces:    []ReplTrace{{Seq: 11, Trace: 0xfeed}, {Seq: 13, Trace: 0xbeef}},
		Records:   []byte("opaque to this package"),
	}
	p := AppendReplBatch(nil, b)
	scratch := make([]ReplTrace, 0, 8)
	back, err := ParseReplBatch(p, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if back.Watermark != b.Watermark || len(back.Traces) != 2 || back.Traces[0] != b.Traces[0] ||
		back.Traces[1] != b.Traces[1] || !bytes.Equal(back.Records, b.Records) {
		t.Fatalf("traced batch round trip: %+v", back)
	}
	if &back.Traces[0] != &scratch[:1][0] {
		t.Fatal("trace list was not decoded into the caller's buffer")
	}
	if re := AppendReplBatch(nil, back); !bytes.Equal(re, p) {
		t.Fatal("traced repl batch does not re-encode identically")
	}
	if allocs := testing.AllocsPerRun(100, func() { back, _ = ParseReplBatch(p, back.Traces) }); allocs != 0 && !race.Enabled {
		t.Fatalf("ParseReplBatch into a reused buffer allocates %.2f times", allocs)
	}
}
