package experiments

import (
	"fmt"

	"sihtm/internal/htm"
	"sihtm/internal/loadgen"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// `repro serve` hosts one YCSB build behind the wire protocol, and
// `repro loadgen` drives it with one open-loop point. Both go through
// this file, so a server, its followers and a later recovery rebuild the
// same base image, and the load generator draws keys the server holds.

// ycsbSpecByID resolves a ycsb scenario id.
func ycsbSpecByID(id string) (ycsbSpec, error) {
	for _, y := range ycsbSpecs {
		if y.id == id {
			return y, nil
		}
	}
	return ycsbSpec{}, fmt.Errorf("experiments: unknown net scenario %q (known: ycsb-a, ycsb-b, ycsb-c)", id)
}

// BuildServed builds the base image `repro serve` hosts: the named
// scenario, populated for shards executors, before any concurrency
// control exists (NewSystem sized for shards comes next), so its heap's
// digest is the one StartDurable records and RecoverDurable rebuilds.
// The build's deterministic seed derives from shards, so a follower and
// a later recovery must use the leader's value.
func BuildServed(scenario, scaleName string, shards int) (*htm.Machine, engine.Backend, error) {
	fail := func(err error) (*htm.Machine, engine.Backend, error) { return nil, nil, err }
	sc, err := ScaleByName(scaleName)
	if err != nil {
		return fail(err)
	}
	y, err := ycsbSpecByID(scenario)
	if err != nil {
		return fail(err)
	}
	if shards <= 0 {
		return fail(fmt.Errorf("experiments: serve needs a positive shard count"))
	}
	b, err := y.build(sc.withDefaults(), shards)
	if err != nil {
		return fail(err)
	}
	return b.machine, b.backend, nil
}

// servedBuild asks a live `repro serve` what it hosts: the scenario, and
// the scale the scenario's keyspace was built at.
func servedBuild(rb *engine.RemoteBackend, addr string) (ycsbSpec, Scale, error) {
	st, err := rb.Stats()
	if err != nil {
		return ycsbSpec{}, Scale{}, err
	}
	if st.Scenario == "" {
		return ycsbSpec{}, Scale{}, fmt.Errorf("experiments: server at %s reports no scenario; is it `repro serve`?", addr)
	}
	y, err := ycsbSpecByID(st.Scenario)
	if err != nil {
		return ycsbSpec{}, Scale{}, err
	}
	buildSc, err := ScaleByName(st.Scale)
	if err != nil {
		return ycsbSpec{}, Scale{}, fmt.Errorf("experiments: server build scale: %w", err)
	}
	return y, buildSc.withDefaults(), nil
}

// RunOpenLoop drives one open-loop point against a live server (`repro
// loadgen`): conns connections offering arrival over sc's windows, keys
// drawn from the server's own build, its admission knobs left as the
// operator set them. It returns the client's coordinated-omission-safe
// measurement and the server's STATS at the window's end. A window with
// an error reply, or with no reply at all, is an error.
func RunOpenLoop(addr string, conns int, arrival loadgen.Arrival, sc Scale, traceEvery int) (loadgen.Result, wire.ServerStats, error) {
	sc = sc.withDefaults()
	fail := func(err error) (loadgen.Result, wire.ServerStats, error) {
		return loadgen.Result{}, wire.ServerStats{}, err
	}
	rb, err := engine.DialRemote(addr, 1)
	if err != nil {
		return fail(err)
	}
	defer rb.Close()
	y, buildSc, err := servedBuild(rb, addr)
	if err != nil {
		return fail(err)
	}
	var end wire.ServerStats
	var werr error
	res, err := loadgen.Run(loadgen.Config{
		Addr:    addr,
		Conns:   conns,
		Arrival: arrival,
		Keys:    y.keys(buildSc),
		Warmup:  sc.Warmup,
		Measure: sc.Measure,
		Seed:    uint64(conns)*2654435761 + 1,
		// Sampled trace ids ship to the server so its ring fills for
		// /debug/traces; `repro trace` merges the server-side rings.
		TraceEvery: traceEvery,
		AtWindow: func(start bool) {
			if !start {
				end, werr = rb.Stats()
			}
		},
	})
	switch {
	case err != nil:
		return fail(err)
	case werr != nil:
		return fail(werr)
	case res.Errs > 0:
		return fail(fmt.Errorf("%d error replies from %s", res.Errs, addr))
	case res.Replies == 0:
		return fail(fmt.Errorf("no replies from %s in the %s window", addr, sc.Measure))
	}
	return res, end, nil
}
