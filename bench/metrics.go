package main

import (
	"time"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names and units (a test checks this).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the gated metrics. The driver requires every workload to
// print every end-to-end metric, never zero, so only the four quantities
// that all four workloads have are gated; the workload-specific ones the
// issue proposed (recover, restore, jobs/s, submit, complete) are in
// perLayer under their proposed names.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"fwd_overhead_pct", "%", "lower", 0.20},
	{"ckpt_blocked_ms_p50", "ms", "lower", 0.25},
}

// perLayer are the ungated metrics of the traced pass, "layer.metric" with
// layer = package under internal/. Zero means the layer does no work on
// that workload (or, for a tail, that it was not sampled).
var perLayer = []metricDef{
	// Workload-specific user-visible metrics (see endToEnd).
	{"recover_ms_p50", "ms", "lower", 0},
	{"restore_ms_p50", "ms", "lower", 0},
	{"jobs_per_s", "1/s", "higher", 0},
	{"submit_ms_p50", "ms", "lower", 0},
	{"complete_ms_p50", "ms", "lower", 0},
	{"ops_failed_pct", "%", "lower", 0},

	{"pup.pack_mb_s", "MB/s", "higher", 0},
	{"pup.unpack_mb_s", "MB/s", "higher", 0},
	{"pup.check_mb_s", "MB/s", "higher", 0},
	{"checksum.fletcher64_mb_s", "MB/s", "higher", 0},

	{"ckptstore.capture_mb_s", "MB/s", "higher", 0},
	{"ckptstore.mem_put_us", "us", "lower", 0},
	{"ckptstore.mem_get_us", "us", "lower", 0},
	{"ckptstore.compare_us", "us", "lower", 0},
	{"ckptstore.disk_put_ms_p50", "ms", "lower", 0},
	{"ckptstore.disk_get_ms_p50", "ms", "lower", 0},
	{"ckptstore.remote_put_ms_p50", "ms", "lower", 0},
	{"ckptstore.flush_mb", "MB", "lower", 0},
	{"ckptstore.remote_retries", "count", "lower", 0},
	{"ckptstore.remote_failovers", "count", "lower", 0},
	{"ckptstore.pool_hit_pct", "%", "higher", 0},

	{"runtime.capture_replica_ms", "ms", "lower", 0},
	{"runtime.restart_mem_ms", "ms", "lower", 0},
	{"runtime.restart_disk_ms", "ms", "lower", 0},
	{"runtime.restart_remote_ms", "ms", "lower", 0},
	{"runtime.pack_fast_pct", "%", "higher", 0},
	{"runtime.dirty_ratio", "ratio", "lower", 0},

	{"consensus.cut_us", "us", "lower", 0},

	{"core.round_ms_p50", "ms", "lower", 0},
	{"core.blocked_ms_p95", "ms", "lower", 0},
	{"core.capture_ms_p50", "ms", "lower", 0},
	{"core.exchange_ms_p50", "ms", "lower", 0},
	{"core.compare_ms_p50", "ms", "lower", 0},
	{"core.other_ms_p50", "ms", "lower", 0},
	{"core.capture_share_pct", "%", "lower", 0},
	{"core.exchange_overlap", "ratio", "higher", 0},
	{"core.rounds", "count", "lower", 0},
	{"core.aborted_rounds", "count", "lower", 0},
	{"core.rollbacks", "count", "lower", 0},
	{"core.tier0_recoveries", "count", "lower", 0},
	{"core.tier1_recoveries", "count", "lower", 0},
	{"core.tier2_recoveries", "count", "lower", 0},
	{"core.tier3_recoveries", "count", "lower", 0},
	{"core.flushed_epochs", "count", "higher", 0},
	{"core.remote_flushed_epochs", "count", "higher", 0},
	{"core.recover_ms_p90", "ms", "lower", 0},
	{"core.restore_ms_p90", "ms", "lower", 0},
	{"core.exchange_frames", "count", "lower", 0},
	{"core.exchange_retries", "count", "lower", 0},

	{"netsim.link_lost_pct", "%", "lower", 0},
	{"netsim.link_send_us", "us", "lower", 0},

	{"apps.bare_solve_s", "s", "lower", 0},
	{"apps.iter_ms", "ms", "lower", 0},
	{"apps.utilization_pct", "%", "higher", 0},
	{"apps.state_kib_per_task", "KiB", "lower", 0},

	{"model.predicted_solve_s", "s", "lower", 0},
	{"model.measured_over_predicted", "ratio", "lower", 0},

	{"fleet.admit_us", "us", "lower", 0},
	{"fleet.queue_wait_ms_p50", "ms", "lower", 0},
	{"fleet.arbiter_wait_ms", "ms", "lower", 0},

	{"acrd.submit_ms_p99", "ms", "lower", 0},
	{"acrd.complete_ms_p99", "ms", "lower", 0},
	{"acrd.submit_inproc_ms_p50", "ms", "lower", 0},
	{"acrd.get_job_us", "us", "lower", 0},
	{"acrd.metrics_scrape_ms", "ms", "lower", 0},
	{"acrd.journal_records", "count", "lower", 0},
	{"acrd.journal_kib", "KiB", "lower", 0},
	{"acrd.polls", "count", "lower", 0},

	{"go.heap_peak_mb", "MB", "lower", 0},
	{"go.alloc_mb", "MB", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// pooled concatenates one latency series across repetitions, in ms.
func pooled(reps []*repResult, key string) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, msAll(r.lat[key])...)
	}
	return out
}

// total sums one counter across repetitions.
func total(reps []*repResult, key string) float64 {
	s := 0.0
	for _, r := range reps {
		s += r.cnt[key]
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(reps []*repResult, pick func(*repResult) time.Duration) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = pick(r).Seconds()
	}
	return out
}

func solveSeconds(reps []*repResult) []float64 {
	return seconds(reps, func(r *repResult) time.Duration { return r.solve })
}

// endToEndValues derives the gated metrics from a pass's repetitions: the
// median over repetitions for whole-run quantities, the median over all
// pooled rounds for the per-round pause.
func endToEndValues(reps []*repResult) map[string]float64 {
	overhead := make([]float64, len(reps))
	for i, r := range reps {
		overhead[i] = 100 * ratio(r.cnt[cntBlockedS], r.cnt[cntRunS])
	}
	return map[string]float64{
		"setup_s":             median(seconds(reps, func(r *repResult) time.Duration { return r.setup })),
		"solve_s":             median(solveSeconds(reps)),
		"fwd_overhead_pct":    median(overhead),
		"ckpt_blocked_ms_p50": median(pooled(reps, latBlocked)),
	}
}

// perLayerValues derives every per-layer metric from the traced
// repetitions of a traced pass. untraced are the same pass's untraced
// repetitions, the base of trace.overhead_pct.
func perLayerValues(traced, untraced []*repResult, tr *tracer, proc procStats) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = 0
	}
	p50 := func(key string) float64 { return median(pooled(traced, key)) }
	tailOf := func(key string, q float64) float64 {
		v, _ := tail(pooled(traced, key), q)
		return v
	}
	sum := func(key string) float64 { return total(traced, key) }

	attempted, failed := 0, 0
	for _, r := range traced {
		attempted += r.attempted
		failed += r.failed
		for k, v := range r.probes {
			out[k] = v
		}
	}
	solve := 0.0
	for _, s := range solveSeconds(traced) {
		solve += s
	}

	out["recover_ms_p50"] = p50(latRecover)
	out["restore_ms_p50"] = p50(latRestore)
	out["jobs_per_s"] = ratio(sum(cntJobs), solve)
	out["submit_ms_p50"] = p50(latSubmit)
	out["complete_ms_p50"] = p50(latComplete)
	out["ops_failed_pct"] = 100 * ratio(float64(failed), float64(attempted))

	out["ckptstore.disk_put_ms_p50"] = p50(latDiskPut)
	out["ckptstore.disk_get_ms_p50"] = p50(latDiskGet)
	out["ckptstore.remote_put_ms_p50"] = p50(latRemotePut)
	out["ckptstore.flush_mb"] = sum(cntFlushBytes) / 1e6
	out["ckptstore.remote_retries"] = sum(cntRemoteRetries)
	out["ckptstore.remote_failovers"] = sum(cntRemoteFailovers)
	out["ckptstore.pool_hit_pct"] = 100 * ratio(sum(cntPoolHits), sum(cntPoolGets))

	out["runtime.pack_fast_pct"] = 100 * ratio(sum(cntPackFast), sum(cntPackFast)+sum(cntPackSlow))
	if chunks := sum(cntChunksPacked) + sum(cntChunksReused); chunks > 0 {
		out["runtime.dirty_ratio"] = sum(cntChunksPacked) / chunks
	}

	out["core.round_ms_p50"] = p50(latRound)
	out["core.blocked_ms_p95"] = tailOf(latBlocked, 0.95)
	out["core.capture_ms_p50"] = p50(latCapture)
	out["core.exchange_ms_p50"] = p50(latExchange)
	out["core.compare_ms_p50"] = p50(latCompare)
	out["core.other_ms_p50"] = p50(latOther)
	out["core.capture_share_pct"] = 100 * ratio(sum(cntCaptureS), sum(cntRoundS))
	out["core.exchange_overlap"] = ratio(sum(cntExchangeBusyS), sum(cntExchangeWallS))
	out["core.rounds"] = sum(cntRounds)
	out["core.aborted_rounds"] = sum(cntAborted)
	out["core.rollbacks"] = sum(cntRollbacks)
	out["core.tier0_recoveries"] = sum(cntTier0)
	out["core.tier1_recoveries"] = sum(cntTier1)
	out["core.tier2_recoveries"] = sum(cntTier2)
	out["core.tier3_recoveries"] = sum(cntTier3)
	out["core.flushed_epochs"] = sum(cntFlushed)
	out["core.remote_flushed_epochs"] = sum(cntRemoteFlushed)
	out["core.recover_ms_p90"] = tailOf(latRecover, 0.90)
	out["core.restore_ms_p90"] = tailOf(latRestore, 0.90)
	out["core.exchange_frames"] = sum(cntFrames)
	out["core.exchange_retries"] = sum(cntFrameRetries)

	out["netsim.link_lost_pct"] = 100 * ratio(sum(cntLinkLost), sum(cntLinkSent))

	// apps: the bare run exists only where a reference run is part of the
	// workload (cg-faults); elsewhere iteration time is the un-paused share
	// of the solve and utilization is not measured.
	if bare := sum(cntBareS); bare > 0 {
		out["apps.bare_solve_s"] = bare / float64(len(traced))
		out["apps.iter_ms"] = 1e3 * ratio(bare, sum(cntIters))
		out["apps.utilization_pct"] = 100 * ratio(bare, solve)
	} else {
		out["apps.iter_ms"] = 1e3 * ratio(solve-sum(cntBlockedS), sum(cntIters))
	}

	out["fleet.queue_wait_ms_p50"] = p50(latQueueWait)
	out["acrd.submit_ms_p99"] = tailOf(latSubmit, 0.99)
	out["acrd.complete_ms_p99"] = tailOf(latComplete, 0.99)
	out["acrd.journal_records"] = sum(cntJournalRecords)
	out["acrd.journal_kib"] = sum(cntJournalBytes) / 1024
	out["acrd.polls"] = sum(cntPolls)

	out["go.heap_peak_mb"] = proc.heapPeakMB
	out["go.alloc_mb"] = proc.allocMB
	out["go.gc_cycles"] = proc.gcCycles
	out["trace.spans"] = float64(tr.count())
	if base := median(solveSeconds(untraced)); base > 0 {
		out["trace.overhead_pct"] = 100 * (median(solveSeconds(traced))/base - 1)
	}
	return out
}
