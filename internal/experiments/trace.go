package experiments

import (
	"fmt"
	"strings"
	"time"

	"sihtm/internal/results"
	"sihtm/internal/trace"
)

// The net-trace cell proves the tracing plane end to end: a durable
// leader with one streaming follower serves a traced YCSB-A client
// (every request carries a trace id), and afterwards the cell merges
// the three span rings — client, leader (fetched over the real
// /debug/traces endpoint), follower — and reconstructs at least one
// complete trace:
//
//	client → admit → exec [→ ack] → flush → request → fsync → repl_apply
//
// with the cross-layer invariants checked on the reconstruction: the
// server stage sum equals the request span exactly, the client round
// trip bounds the server total, the follower replayed the same commit
// sequence, and a group-commit fsync covers it. The p99 exemplar must
// resolve to a client-originated trace id, closing the histogram →
// trace loop the exemplar table exists for.

// netTraceThreads is the cell's traced client worker count.
const netTraceThreads = 4

// netTraceSlack absorbs wall-versus-monotonic clock skew when comparing
// the client round trip against the server-side total.
const netTraceSlack = 2 * time.Millisecond

// traceIndex groups spans per trace id, one span per kind (the newest
// wins, which is fine: the cell only needs one coherent exemplar).
type traceIndex map[uint64]map[trace.Kind]trace.Span

func (ix traceIndex) add(spans []trace.Span) {
	for _, s := range spans {
		if s.Trace == 0 {
			continue
		}
		m := ix[s.Trace]
		if m == nil {
			m = make(map[trace.Kind]trace.Span, 8)
			ix[s.Trace] = m
		}
		m[s.Kind] = s
	}
}

func netTraceEntry() Entry {
	e := Entry{
		ID:       "net-trace",
		Title:    "End-to-end tracing: one reconstructed trace from client through server stages, fsync and follower replay",
		Workload: "net",
		Systems:  []string{"si-htm", "sgl"},
		Params:   "ycsb-a durable leader + 1 follower, trace-every=1, ack=fsync",
	}
	e.run = func(system string, sc Scale, hook func(results.Record)) error {
		threads := sc.cap(netTraceThreads)
		fail := func(err error) error { return fmt.Errorf("net-trace %s: %w", system, err) }
		// The leader's own observability plane is on: its ring is fetched
		// over the /debug/traces endpoint `repro serve --metrics-addr`
		// mounts, so the HTTP query surface is exercised, not just the
		// in-process snapshot.
		spec := replSpec(system, threads, 1, nil)
		spec.observe = true
		c, err := startCluster(spec, sc)
		if err != nil {
			return fail(err)
		}
		defer c.close()
		leader, fol := c.leader.node, c.followers[0].node

		wb, err := dialClient(c.addr(), ycsbA, sc, system, threads)
		if err != nil {
			return fail(err)
		}
		defer wb.Close()
		// Trace every request: the cell's assertions need traced commits
		// in the most recent ring window, not a 1/64 sample.
		clientRing := wb.EnableTracing(1)

		stop := wb.start()
		time.Sleep(sc.Warmup)
		sv0, serr := wb.Stats()
		w0 := wb.snapshot()
		start := time.Now()
		time.Sleep(sc.Measure)
		sv1, serr1 := wb.Stats()
		elapsed := time.Since(start)
		w1 := wb.snapshot()
		stop()
		if serr != nil {
			return fail(serr)
		}
		if serr1 != nil {
			return fail(serr1)
		}

		// Acks ride fsyncs, so with the workers quiesced the durable
		// frontier covers every acknowledged commit; once the follower's
		// watermark reaches it, every traced commit still in the rings has
		// its repl_apply span recorded.
		frontier := leader.Store.DurableSeq()
		if !fol.Follower.WaitWatermark(frontier, 10*time.Second) {
			return fail(fmt.Errorf("follower stuck at watermark %d, leader frontier %d",
				fol.Follower.Watermark(), frontier))
		}

		body, err := httpGetOK(leader.Metrics.Addr(), "/debug/traces")
		if err != nil {
			return fail(err)
		}
		leaderSpans, _, err := trace.ReadJSONL(strings.NewReader(body))
		if err != nil {
			return fail(err)
		}
		if len(leaderSpans) == 0 {
			return fail(fmt.Errorf("/debug/traces returned no spans after a traced run"))
		}

		ix := make(traceIndex)
		ix.add(clientRing.Snapshot(nil))
		ix.add(leaderSpans)
		ix.add(fol.Srv.TraceRing().Snapshot(nil))
		var fsyncs []trace.Span
		for _, s := range leaderSpans {
			if s.Kind == trace.KFsync {
				fsyncs = append(fsyncs, s)
			}
		}
		if len(fsyncs) == 0 {
			return fail(fmt.Errorf("no fsync spans on the leader ring after a durable run"))
		}

		// Reconstruct: a complete trace has the client half, all server
		// stages, a follower replay of the same commit sequence, and a
		// group-commit fsync at or past it. Prefer one with an ack span
		// (a request that actually waited on durability).
		var best map[trace.Kind]trace.Span
		complete := 0
		for _, m := range ix {
			cl, okC := m[trace.KClient]
			req, okR := m[trace.KRequest]
			ra, okA := m[trace.KReplApply]
			_, okAd := m[trace.KAdmit]
			_, okEx := m[trace.KExec]
			_, okFl := m[trace.KFlush]
			if !(okC && okR && okA && okAd && okEx && okFl) || req.Seq == 0 {
				continue
			}
			if ra.Seq != req.Seq {
				return fail(fmt.Errorf("trace %d: repl_apply seq %d != request seq %d",
					cl.Trace, ra.Seq, req.Seq))
			}
			covered := false
			for _, f := range fsyncs {
				if f.Seq >= req.Seq {
					covered = true
					break
				}
			}
			if !covered {
				continue
			}
			complete++
			if best == nil {
				best = m
			}
			if _, hasAck := m[trace.KAck]; hasAck {
				best = m
			}
		}
		if complete == 0 {
			return fail(fmt.Errorf("no complete end-to-end trace across %d ids (client=%d leader=%d follower=%d spans)",
				len(ix), clientRing.Total(), leader.Srv.TraceRing().Total(), fol.Srv.TraceRing().Total()))
		}

		// Cross-layer invariants on the chosen exemplar.
		req := best[trace.KRequest]
		// admit + exec + ack + flush tile the request; a request that was
		// never parked has no ack span, and the missing key reads as 0.
		stageSum := best[trace.KAdmit].Dur + best[trace.KExec].Dur + best[trace.KAck].Dur + best[trace.KFlush].Dur
		if stageSum != req.Dur {
			return fail(fmt.Errorf("trace %d: stage sum %dns != request span %dns", req.Trace, stageSum, req.Dur))
		}
		client := best[trace.KClient]
		if req.Dur > int64(netTraceSlack)+client.Dur {
			return fail(fmt.Errorf("trace %d: server total %s exceeds client round trip %s",
				req.Trace, time.Duration(req.Dur), time.Duration(client.Dur)))
		}
		if req.Trace&trace.ServerOriginBit != 0 {
			return fail(fmt.Errorf("trace %d: client-sampled id carries ServerOriginBit", req.Trace))
		}

		// The histogram → trace bridge: the window's p99 must resolve to
		// an exemplar, and with every request client-traced it must be a
		// client-originated id present in the reconstruction index.
		hist := sv1.Hist.Sub(sv0.Hist)
		exID := leader.Srv.Exemplars().ForQuantile(hist, 0.99)
		if exID == 0 {
			return fail(fmt.Errorf("p99 exemplar empty after a fully traced window"))
		}
		if exID&trace.ServerOriginBit != 0 {
			return fail(fmt.Errorf("p99 exemplar %d is server-origin under trace-every=1", exID))
		}

		r := e.record("", wb.result(w1.Sub(w0), elapsed))
		r.LatencyP50Us, r.LatencyP99Us = us(hist.Quantile(0.5)), us(hist.Quantile(0.99))
		r.TraceSpansTotal = leader.Srv.TraceRing().Total()
		r.TraceStageSumUs = us(time.Duration(stageSum))
		r.TraceClientUs = us(time.Duration(client.Dur))
		if err := c.shutdown(); err != nil {
			return fail(err)
		}
		hook(r)
		return nil
	}
	return e
}
