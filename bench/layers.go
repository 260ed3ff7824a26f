package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Offline measurements of the traced run: single layers driven alone
// with inputs recorded from the workload, outside any timed phase.

const (
	detTransactions = 100000  // planned transactions of the deterministic replay (a test shortens it)
	wireFrames      = 1 << 16 // frames of the wire replay
	walWriteSets    = 1 << 14 // write sets of the WAL replay
	walSyncEvery    = 32      // appends per Sync in the WAL replay
	scrapes         = 100
)

// detCounts are the counts of one deterministic replay. They are counts
// made by the program: they compare two versions exactly or not at all,
// and are never printed as rates.
type detCounts struct {
	commits        uint64
	capacityHTM    uint64
	fallbackHTM    uint64
	capacitySIHTM  uint64
	rotBeginsSIHTM uint64
	htmBeginsSIHTM uint64
}

// detReplay runs the first txs planned transactions of
// thread 0 on a single thread, once under htm and once under si-htm, each
// on a freshly built node. With one thread nothing conflicts, so every
// count is a function of the inputs and the simulator alone: a change
// meant only to make the simulator faster must leave them identical.
func detReplay(w *workload, p plan, txs int) (detCounts, error) {
	var d detCounts
	for _, system := range []string{refSystem, sutSystem} {
		n, err := buildNode(&workload{keys: w.keys, buckets: w.buckets, opsPerTx: w.opsPerTx}, system, nil, "")
		if err != nil {
			return d, err
		}
		wk := newInprocWorker(n, 0, p, phaseTiming{}, nil)
		before := n.raw.Collector().Snapshot()
		for i := 0; i < txs; i++ {
			wk.one()
		}
		st := n.raw.Collector().Snapshot().Sub(before)
		if system == refSystem {
			d.commits = st.Commits
			d.capacityHTM = st.Aborts[AbortCapacity]
			d.fallbackHTM = st.Fallbacks
		} else {
			if st.Commits != d.commits {
				return d, fmt.Errorf("det replay: %d commits under %s, %d under %s", st.Commits, sutSystem, d.commits, refSystem)
			}
			d.capacitySIHTM = st.Aborts[AbortCapacity]
			d.rotBeginsSIHTM = st.HWBeginROT
			d.htmBeginsSIHTM = st.HWBeginHTM
		}
	}
	return d, nil
}

// detReplayTwice runs the replay twice and fails unless every count
// repeats.
func detReplayTwice(w *workload, p plan, txs int) (detCounts, error) {
	a, err := detReplay(w, p, txs)
	if err != nil {
		return a, err
	}
	b, err := detReplay(w, p, txs)
	if err != nil {
		return a, err
	}
	if a != b {
		return a, fmt.Errorf("det replay: counts do not repeat: %+v then %+v", a, b)
	}
	return a, nil
}

// wireReplay is what the server's side of the wire costs per frame,
// measured alone.
type wireReplay struct {
	parseReqNs, encodeReplyNs float64
}

// replayWire encodes the first wireFrames planned requests as the client
// would, then times the server's half of the protocol over them:
// ParseFrame+ParseOps per request frame, AppendResultsFrame per reply.
func replayWire(p plan) (wireReplay, error) {
	var frames []byte
	var op [1]WireOp
	for i := 0; i < wireFrames; i++ {
		e := p[i]
		op[0] = WireOp{Kind: OpGet, Key: uint64(e &^ rmwBit)}
		if e&rmwBit != 0 {
			op[0] = WireOp{Kind: OpRMW, Key: uint64(e &^ rmwBit), Arg: 1}
		}
		frames = AppendOpsFrame(frames, uint64(i+1), op[:])
	}
	var ops []WireOp
	results := make([]WireResult, 0, wireFrames)
	t0 := time.Now()
	for b := frames; len(b) > 0; {
		_, _, payload, size, err := ParseFrame(b)
		if err != nil {
			return wireReplay{}, fmt.Errorf("wire replay: %w", err)
		}
		if ops, err = ParseOps(payload, ops); err != nil {
			return wireReplay{}, fmt.Errorf("wire replay: %w", err)
		}
		results = append(results, WireResult{OK: true, Val: ops[0].Key})
		b = b[size:]
	}
	parse := time.Since(t0)
	reply := make([]byte, 0, 64)
	t0 = time.Now()
	for i := range results {
		reply = AppendResultsFrame(reply[:0], uint64(i+1), results[i:i+1])
	}
	encode := time.Since(t0)
	if len(results) != wireFrames || len(reply) == 0 {
		return wireReplay{}, errors.New("wire replay: frames lost")
	}
	return wireReplay{
		parseReqNs:    float64(parse.Nanoseconds()) / wireFrames,
		encodeReplyNs: float64(encode.Nanoseconds()) / wireFrames,
	}, nil
}

// walReplay is what the log costs per record and per flush, measured
// alone.
type walReplay struct {
	appendNs, syncUs float64
}

// replayWAL reads the first walWriteSets write sets the run logged and
// appends them to a scratch log in dir, timing Append and, every
// walSyncEvery records, Sync.
func replayWAL(logPath, dir string) (walReplay, error) {
	var sets [][]Entry
	stop := errors.New("enough")
	_, err := WALReplay(logPath, func(_ uint64, entries []Entry) error {
		sets = append(sets, slices.Clone(entries))
		if len(sets) == walWriteSets {
			return stop
		}
		return nil
	})
	if err != nil && !errors.Is(err, stop) {
		return walReplay{}, fmt.Errorf("wal replay: %w", err)
	}
	if len(sets) == 0 {
		return walReplay{}, errors.New("wal replay: the run logged nothing")
	}
	log, err := createScratchLog(filepath.Join(dir, "scratch.log"))
	if err != nil {
		return walReplay{}, fmt.Errorf("wal replay: %w", err)
	}
	var appendNs time.Duration
	var syncs []int64
	for i, set := range sets {
		t0 := time.Now()
		log.Append(set)
		appendNs += time.Since(t0)
		if (i+1)%walSyncEvery == 0 {
			t0 = time.Now()
			if err := log.Sync(); err != nil {
				log.Close()
				return walReplay{}, fmt.Errorf("wal replay: %w", err)
			}
			syncs = append(syncs, int64(time.Since(t0)))
		}
	}
	if err := log.Close(); err != nil {
		return walReplay{}, fmt.Errorf("wal replay: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, "scratch.log")); err != nil {
		return walReplay{}, err
	}
	r := walReplay{appendNs: float64(appendNs.Nanoseconds()) / float64(len(sets))}
	if len(syncs) > 0 {
		slices.Sort(syncs)
		r.syncUs = float64(syncs[len(syncs)/2]) / 1e3
	}
	return r, nil
}

// scrapeCost renders the server's telemetry registry as Prometheus text
// scrapes times: the median render time and the series count price the
// observability plane at benchmark settings.
func scrapeCost(srv *Server) (scrapeUs float64, series int, err error) {
	var buf bytes.Buffer
	if err := srv.Telemetry().WritePrometheus(&buf); err != nil {
		return 0, 0, err
	}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			series++
		}
	}
	d := make([]int64, scrapes)
	for i := range d {
		t0 := time.Now()
		if err := srv.Telemetry().WritePrometheus(io.Discard); err != nil {
			return 0, 0, err
		}
		d[i] = int64(time.Since(t0))
	}
	slices.Sort(d)
	return float64(d[len(d)/2]) / 1e3, series, nil
}
