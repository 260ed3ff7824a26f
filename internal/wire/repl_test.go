package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
	"sihtm/internal/rng"
	"sihtm/internal/wal"
)

// walRecords returns the bytes of a real log holding records firstSeq..
// firstSeq+n-1 — what a publisher copies into a batch.
func walRecords(tb testing.TB, r *rng.Rand, firstSeq uint64, n int) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "wal.log")
	l, err := wal.Create(path, wal.Config{NoDaemon: true, FirstSeq: firstSeq})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var es []footprint.Entry
		for j := r.Intn(8); j > 0; j-- {
			es = append(es, footprint.Entry{Addr: memsim.Addr(r.Uint64() % 4096), Val: r.Uint64()})
		}
		l.Append(es)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// buildReplBatch frames a deterministic batch for round-trip tests:
// records firstSeq.., every other one traced.
func buildReplBatch(tb testing.TB, r *rng.Rand, firstSeq uint64, records int) ReplBatch {
	b := ReplBatch{Watermark: firstSeq + uint64(records) - 1, Records: walRecords(tb, r, firstSeq, records)}
	for i := 0; i < records; i += 2 {
		b.Traces = append(b.Traces, ReplTrace{Seq: firstSeq + uint64(i), Trace: r.Uint64() | 1})
	}
	return b
}

func TestReplSubRoundTrip(t *testing.T) {
	from, err := ParseReplSub(AppendReplSub(nil, 1234))
	if err != nil || from != 1234 {
		t.Fatalf("repl sub round trip: (%d, %v)", from, err)
	}
	if _, err := ParseReplSub([]byte{1, 2, 3}); err == nil {
		t.Error("short repl sub payload accepted")
	}
}

// TestReplBatchRoundTrip: watermark and trace list survive the round
// trip, and the records section comes back as the log's own bytes,
// aliasing the payload rather than copied out of it.
func TestReplBatchRoundTrip(t *testing.T) {
	r := rng.New(77)
	for _, records := range []int{0, 1, 5, 40} {
		b := buildReplBatch(t, r, 10, records)
		p := AppendReplBatch(nil, b)
		if want := replBatchHeader + len(b.Traces)*replTraceBytes + len(b.Records); len(p) != want {
			t.Fatalf("%d records: encoded %d bytes, want %d", records, len(p), want)
		}
		got, err := ParseReplBatch(p, nil)
		if err != nil {
			t.Fatalf("%d records: %v", records, err)
		}
		if got.Watermark != b.Watermark || len(got.Traces) != len(b.Traces) || !bytes.Equal(got.Records, b.Records) {
			t.Fatalf("%d records: parsed %+v", records, got)
		}
		for i := range b.Traces {
			if got.Traces[i] != b.Traces[i] {
				t.Fatalf("trace %d: %+v != %+v", i, got.Traces[i], b.Traces[i])
			}
		}
		if len(got.Records) > 0 && &got.Records[0] != &p[len(p)-len(got.Records)] {
			t.Fatalf("%d records: records section was copied out of the payload", records)
		}
		st, err := wal.ReplayBytes(got.Records, nil)
		if err != nil || st.Records != records || st.TailBytes != 0 {
			t.Fatalf("%d records: records section replays as %s (%v)", records, st, err)
		}
	}
}

// TestReplBatchValidation: the header and the trace list are parsed
// strictly; the records section is the WAL parser's to judge.
func TestReplBatchValidation(t *testing.T) {
	r := rng.New(9)
	b := buildReplBatch(t, r, 1, 6)
	p := AppendReplBatch(nil, b)

	// Truncation inside the header or the trace list must be rejected.
	for cut := 0; cut < replBatchHeader+len(b.Traces)*replTraceBytes; cut++ {
		if _, err := ParseReplBatch(p[:cut], nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	mutate := func(what string, fn func(q []byte)) {
		t.Helper()
		q := bytes.Clone(p)
		fn(q)
		if _, err := ParseReplBatch(q, nil); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	mutate("absurd trace count", func(q []byte) { copy(q[8:], []byte{0xFF, 0xFF, 0xFF, 0xFF}) })
	mutate("zero trace id", func(q []byte) { clear(q[replBatchHeader+8 : replBatchHeader+16]) })
	mutate("out-of-order trace seqs", func(q []byte) { q[replBatchHeader+replTraceBytes] = 0 })
	mutate("repeated trace seq", func(q []byte) {
		copy(q[replBatchHeader+replTraceBytes:], q[replBatchHeader:replBatchHeader+8])
	})
}

// FuzzParseReplFrame mirrors FuzzParseFrame for the replication stream:
// the batch parser must never panic, and any payload it accepts must
// re-encode byte-identically (the header and trace list are canonical).
// The records section it hands back then goes through the WAL parser,
// exactly as a follower walks it, which must not panic either. When the
// input happens to frame as a whole TReplBatch wire frame, the payload
// must survive the same round trip.
func FuzzParseReplFrame(f *testing.F) {
	r := rng.New(3)
	b := buildReplBatch(f, r, 1, 3)
	f.Add(AppendReplBatch(nil, b))
	f.Add(AppendReplBatch(nil, ReplBatch{Watermark: 9}))
	f.Add(AppendFrame(nil, 1, TReplBatch, AppendReplBatch(nil, b)))
	f.Add(AppendReplSub(nil, 42))
	f.Add([]byte("garbage"))
	var traces []ReplTrace
	var entries []footprint.Entry
	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := ParseReplBatch(data, traces); err == nil {
			traces = b.Traces
			if re := AppendReplBatch(nil, b); !bytes.Equal(re, data) {
				t.Fatalf("accepted repl batch does not re-encode identically")
			}
			for rest := b.Records; len(rest) > 0; {
				_, es, size, ok := wal.ParseRecord(rest, entries)
				if !ok {
					break
				}
				entries = es
				rest = rest[size:]
			}
		}
		id, typ, payload, _, err := ParseFrame(data)
		if err != nil || typ != TReplBatch {
			return
		}
		b, err := ParseReplBatch(payload, nil)
		if err != nil {
			return
		}
		re := AppendFrame(nil, id, typ, AppendReplBatch(nil, b))
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("accepted repl frame does not re-encode identically")
		}
	})
}
