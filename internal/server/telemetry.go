package server

import (
	"sihtm/internal/telemetry"
	"sihtm/internal/tm"
)

// registerMetrics wires the plane's inputs onto the server's own
// registry (readable via Telemetry()). Called once from New — before
// any connection exists — so all hot-path instruments are plain field
// loads by the time traffic arrives, and the alloc pins exercise the
// instrumented path. Every family registered here has a reader (an
// alert rule, the live panel or the incident report); the table in
// docs/observability.md names it, and TestFamiliesPerRole pins the set.
// Everything else a client differences — frame, batch, WAL and
// controller counters — travels in the STATS reply (Snapshot).
func (s *Server) registerMetrics() {
	reg := telemetry.NewRegistry()
	s.tel = reg

	// Request lifecycle stage histograms. service = admission to reply
	// release (the controller's signal); the stages tile it.
	s.admitHist = reg.MustHistogram("sihtm_server_admission_wait_seconds",
		"Arrival to batch-execution start: time spent queued plus admission grace.")
	s.execHist = reg.MustHistogram("sihtm_server_batch_exec_seconds",
		"Batch execution wall time (one System.Atomic and the encoding of its replies; the fsync ack is not part of it).")
	s.flushHist = reg.MustHistogram("sihtm_server_reply_flush_seconds",
		"Reply release (encode, or fsync ack when durable) to socket write completion.")
	reg.MustRegisterHistogram("sihtm_server_service_seconds",
		"Per-op service latency, admission to reply release, fsync ack included (what the admission controller steers).",
		s.hist)

	// The shared TM seam: identical commit/abort families for whichever
	// of the five systems this server runs.
	tm.RegisterMetrics(reg, s.cfg.System)

	if st := s.cfg.Store; st != nil {
		l := st.Log()
		reg.MustGaugeFunc("sihtm_wal_durable_seq",
			"Highest fsynced sequence number (the acknowledgement frontier).",
			func() float64 { return float64(l.DurableSeq()) })
		reg.MustRegisterHistogram("sihtm_wal_fsync_seconds",
			"Wall time of each fsync.", l.FsyncHist())
		reg.MustRegisterHistogram("sihtm_durable_ack_wait_seconds",
			"Time a committed result waited for the fsync that acknowledges it.",
			st.AckWaitHist())
	}

	if f := s.cfg.Follower; f != nil {
		reg.MustGaugeFunc("sihtm_repl_watermark",
			"Follower replay watermark (highest applied sequence).",
			func() float64 { return float64(f.Watermark()) })
		reg.MustGaugeFunc("sihtm_repl_lag",
			"Leader frontier minus follower watermark (records behind).",
			func() float64 {
				w, l := f.Watermark(), f.LeaderSeq()
				if l <= w {
					return 0
				}
				return float64(l - w)
			})
	} else if s.pub != nil {
		reg.MustCounterFunc("sihtm_repl_dropped_subscribers_total",
			"Follower streams that ended on a failed write.",
			func() uint64 { return s.pub.Dropped() })
	}
}

// Telemetry returns the server's metrics registry — what an HTTP
// observability endpoint serves and what embedding tests scrape.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }
