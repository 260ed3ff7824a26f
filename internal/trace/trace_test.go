package trace

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sihtm/internal/race"
)

func TestIDGenNonZeroNoOriginBit(t *testing.T) {
	g := NewIDGen(42)
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := g.Next()
		if id == 0 {
			t.Fatal("zero trace id")
		}
		if id&ServerOriginBit != 0 {
			t.Fatalf("client id %#x carries the server-origin bit", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %#x within 10k draws", id)
		}
		seen[id] = true
	}
}

func TestSamplerRate(t *testing.T) {
	s := NewSampler(8)
	hits := 0
	for i := 0; i < 800; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("sampler at 1/8 hit %d of 800", hits)
	}
	if NewSampler(0).Sample() {
		t.Fatal("disabled sampler sampled")
	}
	always := NewSampler(1)
	for i := 0; i < 3; i++ {
		if !always.Sample() {
			t.Fatal("every=1 sampler skipped")
		}
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler sampled")
	}
}

func TestRingRoundTrip(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 5; i++ {
		r.Add(Span{Trace: uint64(i), Kind: KExec, Start: int64(i * 100), Dur: int64(i), Arg: int64(i * 2)})
	}
	got := r.Snapshot(nil)
	if len(got) != 5 {
		t.Fatalf("snapshot has %d spans, want 5", len(got))
	}
	for i, s := range got {
		want := Span{Trace: uint64(i + 1), Kind: KExec, Start: int64((i + 1) * 100), Dur: int64(i + 1), Arg: int64((i + 1) * 2)}
		if s != want {
			t.Fatalf("span %d = %+v, want %+v", i, s, want)
		}
	}
	// Overflow keeps the newest.
	for i := 6; i <= 20; i++ {
		r.Add(Span{Trace: uint64(i), Kind: KExec})
	}
	got = r.Snapshot(nil)
	if len(got) != 8 {
		t.Fatalf("wrapped snapshot has %d spans, want 8", len(got))
	}
	if got[0].Trace != 13 || got[7].Trace != 20 {
		t.Fatalf("wrapped snapshot spans [%d..%d], want [13..20]", got[0].Trace, got[7].Trace)
	}
	if r.Total() != 20 {
		t.Fatalf("Total = %d, want 20", r.Total())
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(256)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					r.Add(Span{Trace: uint64(w*1_000_000 + i + 1), Kind: KAdmit, Start: 1, Dur: 2})
				}
			}
		}(w)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	var buf []Span
	for time.Now().Before(deadline) {
		buf = r.Snapshot(buf[:0])
		for _, s := range buf {
			// Every stable slot must hold a fully published span.
			if s.Trace == 0 || s.Kind != KAdmit || s.Start != 1 || s.Dur != 2 {
				close(stop)
				wg.Wait()
				t.Fatalf("torn span surfaced: %+v", s)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestSeqTraces(t *testing.T) {
	var m SeqTraces
	m.Put(7, 0xabc)
	if got := m.Get(7); got != 0xabc {
		t.Fatalf("Get(7) = %#x", got)
	}
	if got := m.Get(8); got != 0 {
		t.Fatalf("Get(miss) = %#x, want 0", got)
	}
	// A colliding sequence overwrites; the old key must miss, never
	// return the new trace.
	m.Put(7+seqTraceSlots, 0xdef)
	if got := m.Get(7); got != 0 {
		t.Fatalf("evicted key returned %#x, want 0", got)
	}
	if got := m.Get(7 + seqTraceSlots); got != 0xdef {
		t.Fatalf("Get(colliding) = %#x", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	spans := []Span{
		{Trace: 123456789012345, Kind: KRequest, Start: 1000, Dur: 500, Arg: 3},
		{Kind: KFsync, Seq: 42, Start: 1100, Dur: 200, Arg: 7},
		{Trace: 5 | ServerOriginBit, Kind: KReplApply, Seq: 43, Start: 1200, Dur: 10, Arg: 43},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans, "leader"); err != nil {
		t.Fatal(err)
	}
	back, nodes, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("round trip lost spans: %d != %d", len(back), len(spans))
	}
	for i := range spans {
		if back[i] != spans[i] {
			t.Fatalf("span %d = %+v, want %+v", i, back[i], spans[i])
		}
		if nodes[i] != "leader" {
			t.Fatalf("node %d = %q", i, nodes[i])
		}
	}
}

// FuzzReadJSONL feeds the span decoder that `repro trace` and `repro
// report` run over /debug/traces bodies and saved files. Property: an
// error, never a panic; and any accepted input re-encodes through
// WriteJSONL, each span under its own node label, to a stream that
// parses back to the same spans and labels.
func FuzzReadJSONL(f *testing.F) {
	r := NewRing(16)
	for k := KClient; k < NumKinds; k++ {
		r.Add(Span{Trace: 1000 + uint64(k), Kind: k, Seq: uint64(k), Start: 1_700_000_000_000_000_000 + int64(k), Dur: 250, Arg: int64(k)})
	}
	r.Add(Span{Kind: KFsync, Seq: 9, Start: 5, Dur: 6, Arg: 3})
	r.Add(Span{Trace: 7 | ServerOriginBit, Kind: KRequest, Start: 8, Dur: 9})
	var dump bytes.Buffer
	if err := WriteJSONL(&dump, r.Snapshot(nil), "leader"); err != nil {
		f.Fatal(err)
	}
	img := dump.Bytes()
	f.Add(append([]byte(nil), img...))
	f.Add(append([]byte(nil), img[:len(img)/2]...)) // truncated mid-line
	garbled := append([]byte(nil), img...)
	garbled[len(garbled)/3] ^= 0x20
	f.Add(garbled)
	f.Add([]byte("{\"kind\":\"exec\",\"start_ns\":1,\"dur_ns\":2}\n\n{\"kind\":\"nope\"}\n"))
	f.Add([]byte("{\"trace\":\"18446744073709551616\",\"kind\":\"client\"}\n"))
	f.Add([]byte("not json at all"))
	f.Fuzz(func(t *testing.T, b []byte) {
		spans, nodes, err := ReadJSONL(bytes.NewReader(b))
		if err != nil {
			return
		}
		if len(b) > (1<<20)/6 {
			// Re-encoding HTML-escapes '<' into a six-byte \u escape, so only
			// inputs this small are sure to stay under the reader's 1 MiB
			// line limit the second time round.
			return
		}
		if len(nodes) != len(spans) {
			t.Fatalf("%d spans carry %d node labels", len(spans), len(nodes))
		}
		var re bytes.Buffer
		for i := range spans {
			if err := WriteJSONL(&re, spans[i:i+1], nodes[i]); err != nil {
				t.Fatal(err)
			}
		}
		spans2, nodes2, err := ReadJSONL(&re)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(spans2) != len(spans) {
			t.Fatalf("re-encoding kept %d of %d spans", len(spans2), len(spans))
		}
		for i := range spans {
			if spans2[i] != spans[i] || nodes2[i] != nodes[i] {
				t.Fatalf("span %d: %+v@%q re-parsed as %+v@%q", i, spans[i], nodes[i], spans2[i], nodes2[i])
			}
		}
	})
}

func TestChromeTraceMerge(t *testing.T) {
	leader := NodeSpans{Node: "leader", Spans: []Span{
		{Trace: 9, Kind: KRequest, Start: 100, Dur: 900},
		{Kind: KFsync, Seq: 1, Start: 300, Dur: 100, Arg: 2},
	}}
	follower := NodeSpans{Node: "follower-0", Spans: []Span{
		{Trace: 9, Kind: KReplApply, Seq: 1, Start: 600, Dur: 50, Arg: 1},
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []NodeSpans{leader, follower}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"fsync"`, `"repl_apply"`, `"request"`, `"pid":"follower-0"`, `"tid":"trace-9"`, `"tid":"wal"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %s in %s", want, out)
		}
	}
}

func TestHandlerServesJSONLAndFilters(t *testing.T) {
	r := NewRing(16)
	r.Add(Span{Trace: 11, Kind: KRequest, Start: 1, Dur: 2})
	r.Add(Span{Trace: 22, Kind: KRequest, Start: 3, Dur: 4})
	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	spans, _, err := ReadJSONL(rec.Body)
	if err != nil || len(spans) != 2 {
		t.Fatalf("full dump: %d spans, err %v", len(spans), err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace=22", nil))
	spans, _, err = ReadJSONL(rec.Body)
	if err != nil || len(spans) != 1 || spans[0].Trace != 22 {
		t.Fatalf("filtered dump: %+v, err %v", spans, err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/traces", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

// TestRingAddAllocs pins the hot-path contract: recording a span into
// the ring, sampling, id generation and the seq→trace map are all
// allocation-free.
func TestRingAddAllocs(t *testing.T) {
	r := NewRing(1024)
	g := NewIDGen(1)
	s := NewSampler(DefaultSampleEvery)
	var m SeqTraces
	span := Span{Trace: 1, Kind: KExec, Start: 1, Dur: 2, Arg: 3}
	for i := 0; i < 512; i++ {
		r.Add(span)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if s.Sample() {
			span.Trace = g.Next()
		}
		r.Add(span)
		m.Put(uint64(span.Start), span.Trace)
	})
	if allocs != 0 && !race.Enabled {
		t.Fatalf("trace hot path allocates %.2f times per span, want 0", allocs)
	}
}
