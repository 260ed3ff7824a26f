package server

import (
	"time"

	"sihtm/internal/telemetry"
	"sihtm/internal/tm"
)

// registerMetrics wires every instrument onto the server's own
// registry (readable via Telemetry()). Called once from New — before
// any connection exists — so all hot-path instruments are plain field
// loads by the time traffic arrives, and the alloc pins exercise the
// instrumented path. The families registered here are the contract
// documented in docs/observability.md.
func (s *Server) registerMetrics() {
	reg := telemetry.NewRegistry()
	s.tel = reg

	// Request lifecycle stage histograms. service = admission to reply
	// release (the controller's signal); the stages bracket it.
	s.admitHist = reg.MustHistogram("sihtm_server_admission_wait_seconds",
		"Arrival to batch-execution start: time spent queued plus admission grace.",
		telemetry.UnitSeconds)
	s.execHist = reg.MustHistogram("sihtm_server_batch_exec_seconds",
		"Batch execution wall time (one System.Atomic; the fsync ack is not part of it).",
		telemetry.UnitSeconds)
	s.flushHist = reg.MustHistogram("sihtm_server_reply_flush_seconds",
		"Reply release (encode, or fsync ack when durable) to socket write completion.",
		telemetry.UnitSeconds)
	s.batchOpsHist = reg.MustHistogram("sihtm_server_batch_ops",
		"Operations coalesced per executed batch.",
		telemetry.UnitCount)
	reg.MustRegisterHistogram("sihtm_server_service_seconds",
		"Per-op service latency, admission to reply release, fsync ack included (what the admission controller steers).",
		telemetry.UnitSeconds, s.hist)

	// Wire traffic and connection state.
	reg.MustCounterFunc("sihtm_server_frames_total",
		"Wire frames by direction.",
		func() uint64 { return s.framesIn.Load() }, telemetry.L("dir", "in"))
	reg.MustCounterFunc("sihtm_server_frames_total", "",
		func() uint64 { return s.framesOut.Load() }, telemetry.L("dir", "out"))
	reg.MustGaugeFunc("sihtm_server_connections",
		"Open client connections.",
		func() float64 {
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			return float64(n)
		})
	reg.MustGaugeFunc("sihtm_server_queue_depth",
		"Admitted requests waiting in executor queues.",
		func() float64 {
			n := 0
			for _, sh := range s.shards {
				n += len(sh.ch)
			}
			return float64(n)
		})
	reg.MustGaugeFunc("sihtm_server_executors_busy",
		"Executors currently inside System.Atomic.",
		func() float64 { return float64(s.execBusy.Load()) })

	// Batching and admission knobs (live values — the controller moves
	// them) plus controller activity.
	reg.MustCounterFunc("sihtm_server_batches_total",
		"Executed batches (one transaction each).",
		func() uint64 { return s.batches.Load() })
	reg.MustCounterFunc("sihtm_server_batched_ops_total",
		"Operations carried by executed batches.",
		func() uint64 { return s.batchedOps.Load() })
	reg.MustGaugeFunc("sihtm_ctrl_batch_max",
		"Current admission batch bound (ops per transaction).",
		func() float64 { return float64(s.batchMax.Load()) })
	reg.MustGaugeFunc("sihtm_ctrl_admit_wait_seconds",
		"Current admission grace period.",
		func() float64 { return time.Duration(s.admitWait.Load()).Seconds() })
	reg.MustGaugeFunc("sihtm_ctrl_p99_target_seconds",
		"Adaptive admission controller p99 target (0 = controller off).",
		func() float64 { return time.Duration(s.p99Target.Load()).Seconds() })
	reg.MustCounterFunc("sihtm_ctrl_epochs_total",
		"Completed controller sampling intervals.",
		func() uint64 { return s.ctrlEpochs.Load() })
	reg.MustCounterFunc("sihtm_ctrl_adjusts_total",
		"Controller intervals that moved a knob.",
		func() uint64 { return s.ctrlAdjusts.Load() })
	reg.MustCounterFunc("sihtm_trace_spans_total",
		"Spans recorded into the trace ring (lossy: the ring keeps the newest).",
		func() uint64 { return s.ring.Total() })

	// The shared TM seam: identical abort/commit/hw-mode families for
	// whichever of the five systems this server runs.
	tm.RegisterMetrics(reg, s.cfg.System)

	if st := s.cfg.Store; st != nil {
		l := st.Log()
		reg.MustCounterFunc("sihtm_wal_records_total",
			"Redo records appended (not necessarily durable yet).",
			func() uint64 { return l.Stats().Records })
		reg.MustCounterFunc("sihtm_wal_bytes_total",
			"Encoded record bytes appended.",
			func() uint64 { return l.Stats().Bytes })
		reg.MustCounterFunc("sihtm_wal_batches_total",
			"Group-commit flushes that wrote data.",
			func() uint64 { return l.Stats().Batches })
		reg.MustCounterFunc("sihtm_wal_fsyncs_total",
			"fsync calls.",
			func() uint64 { return l.Stats().Fsyncs })
		reg.MustGaugeFunc("sihtm_wal_pending_bytes",
			"Append-buffer bytes awaiting the next group-commit flush.",
			func() float64 { return float64(l.PendingBytes()) })
		reg.MustGaugeFunc("sihtm_wal_durable_seq",
			"Highest fsynced sequence number (the acknowledgement frontier).",
			func() float64 { return float64(l.DurableSeq()) })
		reg.MustRegisterHistogram("sihtm_wal_fsync_seconds",
			"Wall time of each fsync.",
			telemetry.UnitSeconds, l.FsyncHist())
		reg.MustRegisterHistogram("sihtm_wal_batch_records",
			"Redo records per group-commit batch.",
			telemetry.UnitCount, l.BatchRecsHist())
		reg.MustRegisterHistogram("sihtm_durable_ack_wait_seconds",
			"Time a committed result waited for the fsync that acknowledges it.",
			telemetry.UnitSeconds, st.AckWaitHist())
	}

	if f := s.cfg.Follower; f != nil {
		reg.MustGaugeFunc("sihtm_repl_watermark",
			"Follower replay watermark (highest applied sequence).",
			func() float64 { return float64(f.Watermark()) })
		reg.MustGaugeFunc("sihtm_repl_leader_seq",
			"Leader durable frontier as last advertised on the stream.",
			func() float64 { return float64(f.LeaderSeq()) })
		reg.MustGaugeFunc("sihtm_repl_lag",
			"Leader frontier minus follower watermark (records behind).",
			func() float64 {
				w, l := f.Watermark(), f.LeaderSeq()
				if l <= w {
					return 0
				}
				return float64(l - w)
			})
		reg.MustCounterFunc("sihtm_repl_reconnects_total",
			"Stream reconnects the follower performed.",
			func() uint64 { return f.Reconnects() })
		reg.MustCounterFunc("sihtm_repl_applied_total",
			"Redo records the follower applied.",
			func() uint64 { return f.Applied() })
		reg.MustGaugeFunc("sihtm_repl_promoted",
			"1 once the follower was promoted to a serving leader.",
			func() float64 {
				if f.Promoted() {
					return 1
				}
				return 0
			})
	} else if s.pub != nil {
		reg.MustGaugeFunc("sihtm_repl_subscribers",
			"Live follower streams on this leader.",
			func() float64 { return float64(s.pub.Subscribers()) })
		reg.MustCounterFunc("sihtm_repl_dropped_subscribers_total",
			"Follower streams that ended on a failed write.",
			func() uint64 { return s.pub.Dropped() })
	}
}

// Telemetry returns the server's metrics registry — what an HTTP
// observability endpoint serves and what embedding tests scrape.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }
