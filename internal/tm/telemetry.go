package tm

import (
	"sihtm/internal/stats"
	"sihtm/internal/telemetry"
)

// RegisterMetrics exposes a System's commit and abort accounting as one
// uniform set of telemetry families, labeled by system name. Every
// system — si-htm, htm, p8tm, sgl, silo — funnels through the same
// stats.Collector seam, so the families are identical across systems.
// The rest of the collector (fallbacks, hardware begins, wait spins)
// travels in the STATS reply, which carries the whole snapshot.
//
// All series are scrape-time functions over the collector's padded
// per-thread slots: registering metrics adds zero cost to the
// transaction hot path.
func RegisterMetrics(reg *telemetry.Registry, sys System) {
	col := sys.Collector()
	name := sys.Name()
	sysL := telemetry.L("system", name)

	reg.MustCounterFunc("sihtm_tm_commits_total",
		"Committed transactions by execution path.",
		func() uint64 { s := col.Snapshot(); return s.Commits - s.CommitsRO },
		sysL, telemetry.L("path", "update"))
	reg.MustCounterFunc("sihtm_tm_commits_total", "",
		func() uint64 { return col.Snapshot().CommitsRO },
		sysL, telemetry.L("path", "read_only"))

	for k := range stats.AbortKind(stats.NumAbortKinds) {
		reg.MustCounterFunc("sihtm_tm_aborts_total",
			"Aborted transaction attempts by cause (the paper's three abort causes).",
			func() uint64 { return col.Snapshot().Aborts[k] },
			sysL, telemetry.L("cause", k.String()))
	}
}
