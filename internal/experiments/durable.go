package experiments

import "sihtm/internal/topology"

// The durable scenario entries measure the engine with the durability
// subsystem attached: every update transaction's write set is captured
// at the commit hook, sequenced into the write-ahead log, group-commit
// fsynced, and acknowledged before Atomic returns; fuzzy checkpoints
// run concurrently with the measured window. Each point also verifies
// recovery end-to-end: after the run, the scenario is rebuilt on a
// fresh heap, restored from checkpoint + log, and compared word-for-
// word against the live heap before the workload invariants are
// re-checked on the recovered state (runPoint on a durable host).

// durableEntry is a scenario's thread ladder on the durable host.
func durableEntry(id, title, params string, w workload) Entry {
	return Entry{
		ID:           id,
		Title:        title,
		Workload:     "durable",
		Systems:      scenarioSystems,
		ThreadLadder: topology.PaperThreadLadder,
		Params:       params + " ack=fsync ckpt=fuzzy",
		axis:         ladder(w),
		durableHost:  true,
	}
}

// durableEntries builds the durability scenario entries in
// presentation order: the update-heavy YCSB-A mix, and vacation's
// low-contention configuration with its conservation invariant.
func durableEntries() []Entry {
	return []Entry{
		durableEntry("durable-ycsb-a",
			"Durable YCSB-A: group-commit WAL + fuzzy checkpoints + post-run recovery check",
			"ycsb-a", ycsbA.build),
		durableEntry("durable-vacation",
			"Durable vacation: reservations with group-commit WAL, conservation re-checked after replay",
			"vacation-low", vacationLow.build),
	}
}
