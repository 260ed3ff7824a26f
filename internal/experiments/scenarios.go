package experiments

import (
	"fmt"

	"sihtm/internal/topology"
	"sihtm/internal/workload/ycsb"
)

// The scenario entries are the workload-engine additions to the paper's
// figures: YCSB-style KV mixes (over both engine backends), the
// vacation travel-reservation application, and the Zipfian-θ sweep that
// shows how capacity aborts depend on access skew. They compare the
// systems the capacity argument is about — plain HTM, SI-HTM's ROTs and
// the serial SGL floor.
var scenarioSystems = []string{"htm", "si-htm", "sgl"}

// scenarioWorkloads marks the workload families of the "scenarios"
// selector group.
var scenarioWorkloads = map[string]bool{"ycsb": true, "vacation": true}

// scaledKeys shrinks a base keyspace by the scale's divisor, keeping a
// floor so chains/trees stay non-degenerate.
func scaledKeys(base int, sc Scale, floor int) int {
	n := base / sc.WorkloadDiv
	if n < floor {
		n = floor
	}
	return n
}

var ycsbSpecs = []ycsbSpec{
	{id: "ycsb-a", workload: ycsb.A, backend: "hashmap", baseKeys: 8192, chain: 8, opsPerTx: 8,
		title: "YCSB-A: update-heavy 50r/50rmw, zipf(0.99), hash-map backend"},
	{id: "ycsb-b", workload: ycsb.B, backend: "hashmap", baseKeys: 8192, chain: 8, opsPerTx: 8,
		title: "YCSB-B: read-mostly 95r/5rmw, zipf(0.99), hash-map backend"},
	{id: "ycsb-c", workload: ycsb.C, backend: "btree", baseKeys: 16384, opsPerTx: 8,
		title: "YCSB-C: read-only 90r/10scan, zipf(0.99), B+tree index backend"},
}

// ycsbEntry builds the registry entry for one YCSB spec.
func ycsbEntry(y ycsbSpec) Entry {
	spec, err := ycsb.Spec(ycsb.Config{Workload: y.workload, Keys: y.baseKeys, OpsPerTx: y.opsPerTx})
	if err != nil {
		panic(err)
	}
	return Entry{
		ID:           y.id,
		Title:        y.title,
		Workload:     "ycsb",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       fmt.Sprintf("%s backend=%s", spec.Params(), y.backend),
		axis:         ladder(y.build),
	}
}

var vacationSpecs = []vacationSpec{
	{id: "vacation-low", queryN: 2, rangePct: 90,
		browse: 50, reserve: 40, del: 5, upd: 5,
		baseRelations: 2048, baseCustomers: 512,
		title: "Vacation (low contention): 2-item tasks over 90% of the tables"},
	{id: "vacation-high", queryN: 8, rangePct: 10,
		browse: 30, reserve: 60, del: 5, upd: 5,
		baseRelations: 2048, baseCustomers: 256,
		title: "Vacation (high contention): 8-item tasks over 10% of the tables"},
}

// vacationEntry builds the registry entry for one vacation spec.
func vacationEntry(v vacationSpec) Entry {
	return Entry{
		ID:           v.id,
		Title:        v.title,
		Workload:     "vacation",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params: fmt.Sprintf("relations=%d customers=%d queryN=%d range=%d%% mix=%d/%d/%d/%d",
			v.baseRelations, v.baseCustomers, v.queryN, v.rangePct, v.browse, v.reserve, v.del, v.upd),
		axis: ladder(v.build),
	}
}

// zipfThetas is the skew x-axis of the Zipfian sweep.
var zipfThetas = []float64{0, 0.4, 0.7, 0.9, 0.99}

// zipfEntry is the Zipfian-θ capacity sweep: the YCSB-B mix batched
// into 16-op transactions over hash-map chains of ~8 nodes, at a fixed
// thread count, across growing skew. Under the uniform extreme a
// transaction touches ~16 distinct chains (≈80+ lines ≫ the 64-line
// TMCAM) and plain HTM lives above the capacity cliff; at θ = 0.99 the
// draws concentrate on few hot chains, the distinct-line footprint
// falls below the TMCAM and the capacity-abort rate falls with it,
// while SI-HTM stays flat throughout (read-only batches are
// uninstrumented and ROT reads untracked).
func zipfEntry() Entry {
	const threads = 8
	y := ycsbSpec{workload: ycsb.B, backend: "hashmap", baseKeys: 4096, chain: 8, opsPerTx: 16, seed: 31}
	return Entry{
		ID:       "zipf",
		Title:    "Zipfian-θ sweep: capacity-abort rate vs access skew (YCSB-B, 16 ops/tx, 8 threads)",
		Workload: "ycsb",
		Systems:  scenarioSystems,
		Params:   fmt.Sprintf("theta=%v keys=%d chain=%d ops/tx=%d threads=%d", zipfThetas, y.baseKeys, y.chain, y.opsPerTx, threads),
		axis: func(sc Scale) []point {
			var ps []point
			for _, theta := range zipfThetas {
				skewed := y
				// Theta 0 must stay uniform rather than defaulting.
				skewed.theta, skewed.uniform = theta, theta == 0
				ps = append(ps, point{param: fmt.Sprintf("theta=%.2f", theta), threads: sc.cap(threads), w: skewed.build})
			}
			return ps
		},
	}
}

// scenarioEntries builds all scenario entries in presentation order.
func scenarioEntries() []Entry {
	entries := make([]Entry, 0, len(ycsbSpecs)+len(vacationSpecs)+1)
	for _, y := range ycsbSpecs {
		entries = append(entries, ycsbEntry(y))
	}
	entries = append(entries, zipfEntry())
	for _, v := range vacationSpecs {
		entries = append(entries, vacationEntry(v))
	}
	return entries
}
