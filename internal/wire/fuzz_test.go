package wire

import (
	"bytes"
	"testing"

	"sihtm/internal/race"
)

// Round-trip fuzzers for the data-plane list codecs: whatever ParseOps
// or ParseResults accepts must re-encode byte-identically (the codecs
// are canonical — one valid encoding per value), and the framed
// variants (AppendOpsFrame, AppendResultsFrame) must produce exactly
// the bytes of the two-step encode they replace.

// FuzzOpsRoundTrip: ParseOps never panics; accepted payloads re-encode
// identically via AppendOps, and AppendOpsFrame agrees with
// AppendFrame-over-AppendOps.
func FuzzOpsRoundTrip(f *testing.F) {
	f.Add(AppendOps(nil, nil))
	f.Add(AppendOps(nil, []Op{{Kind: OpGet, Key: 7}}))
	f.Add(AppendOps(nil, []Op{
		{Kind: OpPut, Key: 1, Arg: 2},
		{Kind: OpRMW, Key: 3, Arg: 4},
		{Kind: OpScan, Key: 5, Arg: 6},
		{Kind: OpDel, Key: 9},
	}))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, p []byte) {
		ops, err := ParseOps(p, nil)
		if err != nil {
			return
		}
		re := AppendOps(nil, ops)
		if !bytes.Equal(re, p) {
			t.Fatalf("accepted op list does not re-encode identically: %d in, %d out", len(p), len(re))
		}
		// The single-buffer frame encoder must match the two-step path
		// bit for bit — a parser on the other side cannot tell which
		// encoder the client used.
		framed := AppendOpsFrame(nil, 42, ops)
		if want := AppendFrame(nil, 42, TTxn, re); !bytes.Equal(framed, want) {
			t.Fatal("AppendOpsFrame disagrees with AppendFrame over AppendOps")
		}
		id, typ, payload, _, err := ParseFrame(framed)
		if err != nil || id != 42 || typ != TTxn {
			t.Fatalf("framed op list does not parse back: id=%d type=%v err=%v", id, typ, err)
		}
		back, err := ParseOps(payload, nil)
		if err != nil {
			t.Fatalf("framed payload rejected: %v", err)
		}
		if len(back) != len(ops) {
			t.Fatalf("framed round trip lost ops: %d != %d", len(back), len(ops))
		}
	})
}

// FuzzResultsRoundTrip: the Result codec's mirror of FuzzOpsRoundTrip.
// Note OK bytes other than 0/1 decode to true but re-encode as 1, so
// only canonical inputs re-encode identically — the fuzzer checks
// value-level stability for everything accepted.
func FuzzResultsRoundTrip(f *testing.F) {
	f.Add(AppendResults(nil, nil))
	f.Add(AppendResults(nil, []Result{{OK: true, Val: 99}, {OK: false, Val: 0}}))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, p []byte) {
		rs, err := ParseResults(p, nil)
		if err != nil {
			return
		}
		re := AppendResults(nil, rs)
		rs2, err := ParseResults(re, nil)
		if err != nil {
			t.Fatalf("re-encoded result list rejected: %v", err)
		}
		if len(rs2) != len(rs) {
			t.Fatalf("re-encode changed count: %d != %d", len(rs2), len(rs))
		}
		for i := range rs {
			if rs[i] != rs2[i] {
				t.Fatalf("result %d unstable across re-encode: %+v != %+v", i, rs[i], rs2[i])
			}
		}
		framed := AppendResultsFrame(nil, 7, rs)
		if want := AppendFrame(nil, 7, TReply, re); !bytes.Equal(framed, want) {
			t.Fatal("AppendResultsFrame disagrees with AppendFrame over AppendResults")
		}
		id, typ, payload, _, err := ParseFrame(framed)
		if err != nil || id != 7 || typ != TReply {
			t.Fatalf("framed result list does not parse back: id=%d type=%v err=%v", id, typ, err)
		}
		if _, err := ParseResults(payload, nil); err != nil {
			t.Fatalf("framed payload rejected: %v", err)
		}
	})
}

// TestFrameCodecsReuseBuffers pins the pooled-buffer contract: both
// framed encoders append in place without reallocating when capacity
// suffices.
func TestFrameCodecsReuseBuffers(t *testing.T) {
	ops := []Op{{Kind: OpRMW, Key: 1, Arg: 2}, {Kind: OpGet, Key: 3}}
	rs := []Result{{OK: true, Val: 3}, {OK: true, Val: 4}}

	buf := make([]byte, 0, 1024)
	out := AppendOpsFrame(buf, 1, ops)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendOpsFrame reallocated despite capacity")
	}
	out2 := AppendResultsFrame(out[:0], 2, rs)
	if &out2[0] != &out[:1][0] {
		t.Fatal("AppendResultsFrame reallocated despite capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendOpsFrame(buf[:0], 1, ops)
		buf = AppendResultsFrame(buf[:0], 2, rs)
	})
	if allocs != 0 && !race.Enabled {
		t.Fatalf("framed encoders allocate %.2f times with a warm buffer, want 0", allocs)
	}
}
