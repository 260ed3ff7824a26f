package experiments

import (
	"fmt"

	"sihtm/internal/topology"
	"sihtm/internal/workload/tpcc"
)

// The ablations are this reproduction's additions to the paper's
// figures: parameter sweeps that isolate individual mechanisms (the
// capacity cliff, TMCAM sizing, the read-only fast path, the §6 killing
// policy, SMT placement). rofast and killer are thread ladders over a
// figure's workload under two variants of SI-HTM; the rest emit one
// record per swept parameter value with the Param field carrying the
// x-axis.

// capacityFootprints is the read-footprint x-axis of ablation A1,
// straddling the 64-line TMCAM.
var capacityFootprints = []int{8, 16, 32, 48, 60, 64, 72, 96, 128, 256}

// capacityEntry is ablation A1: single-threaded transactions with a
// growing read footprint and a single-line write set, contrasting plain
// HTM (reads consume the 64-line TMCAM → abort cliff) with SI-HTM
// (write-set-bounded → flat). This isolates the paper's §2.2/§3
// capacity claim from all concurrency effects.
func capacityEntry() Entry {
	return Entry{
		ID:       "capacity",
		Title:    "Ablation A1: read-footprint sweep (single thread, TMCAM = 64 lines)",
		Workload: "synthetic",
		Systems:  htmVsSIHTM,
		Params:   fmt.Sprintf("footprint=%v writes=1", capacityFootprints),
		axis: func(Scale) []point {
			var ps []point
			for _, fp := range capacityFootprints {
				ps = append(ps, point{param: fmt.Sprintf("footprint=%d", fp), threads: 1, w: capacityWorkload(fp), short: true})
			}
			return ps
		},
	}
}

// tmcamSizes is the TMCAM x-axis of ablation A2.
var tmcamSizes = []int{16, 32, 64, 128, 256}

// tmcamEntry is ablation A2: the hash-map 90%-RO large workload at a
// fixed thread count under varying TMCAM sizes, showing the sensitivity
// of both systems to the hardware buffer.
func tmcamEntry() Entry {
	const threads = 8
	h := hashmapSpec{buckets: lowBuckets, chain: largeChain, roPct: roHeavy, seed: 5}
	return Entry{
		ID:       "tmcam",
		Title:    "Ablation A2: TMCAM size sweep (hash-map large 90% RO, 8 threads)",
		Workload: "hashmap",
		Systems:  htmVsSIHTM,
		Params:   fmt.Sprintf("tmcam=%v threads=%d %s", tmcamSizes, threads, h.params()),
		axis: func(Scale) []point {
			var ps []point
			for _, size := range tmcamSizes {
				sized := h
				sized.tmcam = size
				ps = append(ps, point{param: fmt.Sprintf("tmcam=%d", size), threads: threads, w: sized.build})
			}
			return ps
		},
	}
}

// siHTMVariant is a thread-ladder ablation comparing SI-HTM with one
// mechanism switched, on a figure's hash-map workload.
func siHTMVariant(id, title, variant string, h hashmapSpec) Entry {
	return Entry{
		ID:           id,
		Title:        title,
		Workload:     "hashmap",
		Systems:      []string{"si-htm", variant},
		ThreadLadder: topology.PaperThreadLadder,
		Params:       h.params(),
		axis:         ladder(h.build),
	}
}

// roFastPathEntry is ablation A3: SI-HTM with and without the read-only
// fast path on the read-heavy hash-map, isolating the quiescence the
// fast path saves.
func roFastPathEntry() Entry {
	return siHTMVariant("rofast",
		"Ablation A3: SI-HTM read-only fast path on vs off (hash-map large 90% RO, low contention)",
		"si-htm-noro", hashmapSpec{buckets: lowBuckets, chain: largeChain, roPct: roHeavy})
}

// killerEntry is ablation A4a: the §6 killing policy on the
// high-contention 50% update hash-map, where laggards prolong
// quiescence.
func killerEntry() Entry {
	return siHTMVariant("killer",
		"Ablation A4a: §6 killing policy (hash-map large 50% RO, high contention)",
		"si-htm-killer", hashmapSpec{buckets: highBuckets, chain: largeChain, roPct: roBalanced})
}

// smtEntry is ablation A5: a fixed 8-thread TPC-C run placed either one
// thread per core (SMT-1) or stacked on a single core (SMT-8), measuring
// the cost of TMCAM sharing directly.
func smtEntry() Entry {
	const threads = 8
	placement := func(name string, topo topology.Topology) point {
		t := tpccSpec{mix: tpcc.StandardMix, warehouses: 8, seed: 9, topo: topo}
		return point{param: "placement=" + name, threads: threads, w: t.build}
	}
	return Entry{
		ID:       "smt",
		Title:    "Ablation A5: SMT placement (TPC-C standard mix, 8 threads, spread vs stacked)",
		Workload: "tpcc",
		Systems:  htmVsSIHTM,
		Params:   "placement={spread,stacked} warehouses=8 mix=standard",
		axis: func(Scale) []point {
			return []point{placement("spread", topology.New(8, 8)), placement("stacked", topology.New(1, 8))}
		},
	}
}
