package acrd

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// GET /metrics — Prometheus text exposition (format 0.0.4), hand-rolled so
// the daemon stays dependency-free. Three metric families:
//
//   - acrd_*: daemon-level gauges (identity, uptime, job-state census,
//     resume audit).
//   - acr_fleet_*: the scheduler's FleetStats and the I/O arbiter's
//     counters, as monotonic totals.
//   - acr_job_*: per-job protocol counters from core.Progress, labeled
//     {id, job}. Live jobs report their atomics; settled jobs report the
//     final Stats frozen in their result, so counters do not vanish from
//     the scrape when a job finishes.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	meta := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	meta("acrd_info", "gauge", "Build identity of the running daemon.")
	fmt.Fprintf(&b, "acrd_info{version=%q,go_version=%q,revision=%q} 1\n",
		s.info.Version, s.info.GoVersion, s.info.VCSRevision)
	meta("acrd_uptime_seconds", "gauge", "Seconds since the daemon started.")
	fmt.Fprintf(&b, "acrd_uptime_seconds %g\n", time.Since(s.start).Seconds())

	statuses := s.Statuses()
	counts := map[string]int{"queued": 0, "running": 0, "completed": 0, "failed": 0}
	for _, st := range statuses {
		counts[st.State]++
	}
	meta("acrd_jobs", "gauge", "Jobs by state.")
	for _, state := range []string{"queued", "running", "completed", "failed"} {
		fmt.Fprintf(&b, "acrd_jobs{state=%q} %d\n", state, counts[state])
	}

	rep := s.ResumeReport()
	meta("acrd_resume_salvaged_epochs", "gauge", "Durable epochs the last resume audit confirmed usable.")
	fmt.Fprintf(&b, "acrd_resume_salvaged_epochs %d\n", rep.SalvagedEpochs)
	meta("acrd_resume_skipped_epochs", "gauge", "Epochs the last resume audit found only partly on disk.")
	fmt.Fprintf(&b, "acrd_resume_skipped_epochs %d\n", rep.SkippedEpochs)
	meta("acrd_resume_readmitted_jobs", "gauge", "Jobs readmitted warm by the last resume.")
	fmt.Fprintf(&b, "acrd_resume_readmitted_jobs %d\n", rep.Readmitted)

	fs := s.sched.Stats()
	meta("acr_fleet_submitted_total", "counter", "Jobs submitted to the fleet.")
	fmt.Fprintf(&b, "acr_fleet_submitted_total %d\n", fs.Submitted)
	meta("acr_fleet_admissions_total", "counter", "Jobs admitted to resources.")
	fmt.Fprintf(&b, "acr_fleet_admissions_total %d\n", fs.Admissions)
	meta("acr_fleet_completed_total", "counter", "Jobs completed.")
	fmt.Fprintf(&b, "acr_fleet_completed_total %d\n", fs.Completed)
	meta("acr_fleet_failed_total", "counter", "Jobs failed.")
	fmt.Fprintf(&b, "acr_fleet_failed_total %d\n", fs.Failed)
	meta("acr_fleet_preemptions_total", "counter", "Spares preempted between jobs.")
	fmt.Fprintf(&b, "acr_fleet_preemptions_total %d\n", fs.Preemptions)
	meta("acr_fleet_spare_grants_total", "counter", "Spares granted to degraded jobs.")
	fmt.Fprintf(&b, "acr_fleet_spare_grants_total %d\n", fs.SpareGrants)
	meta("acr_fleet_queue_wait_seconds_total", "counter", "Cumulative admission queue wait.")
	fmt.Fprintf(&b, "acr_fleet_queue_wait_seconds_total %g\n", fs.QueueWait.Seconds())
	meta("acr_fleet_degraded_seconds_total", "counter", "Cumulative time jobs ran degraded.")
	fmt.Fprintf(&b, "acr_fleet_degraded_seconds_total %g\n", fs.DegradedTime.Seconds())

	meta("acr_fleet_arbiter_write_waits_total", "counter", "Flush writes that waited for bandwidth tokens.")
	fmt.Fprintf(&b, "acr_fleet_arbiter_write_waits_total %d\n", fs.Arbiter.WriteWaits)
	meta("acr_fleet_arbiter_write_wait_seconds_total", "counter", "Cumulative flush-write wait time.")
	fmt.Fprintf(&b, "acr_fleet_arbiter_write_wait_seconds_total %g\n", fs.Arbiter.WriteWait.Seconds())
	meta("acr_fleet_arbiter_write_bytes_total", "counter", "Flush bytes admitted through the arbiter.")
	fmt.Fprintf(&b, "acr_fleet_arbiter_write_bytes_total %d\n", fs.Arbiter.WriteBytes)
	meta("acr_fleet_arbiter_read_bypasses_total", "counter", "Recovery reads bypassing the write budget.")
	fmt.Fprintf(&b, "acr_fleet_arbiter_read_bypasses_total %d\n", fs.Arbiter.ReadBypasses)

	// Per-job counters: one stable label set {id, job}. Progress and final
	// Stats share the update sites, so the series stays monotonic across
	// the running → settled transition.
	type jobSample struct {
		labels string
		vals   map[string]float64
	}
	names := []string{
		"acr_job_committed_epoch",
		"acr_job_checkpoints_total",
		"acr_job_hard_errors_total",
		"acr_job_sdc_detected_total",
		"acr_job_rollbacks_total",
		"acr_job_flushed_epochs_total",
		"acr_job_folds_total",
		"acr_job_degraded_nodes",
		"acr_job_resumed_epoch",
		"acr_remote_flushed_epochs_total",
		"acr_remote_retries_total",
		"acr_remote_breaker_trips_total",
		"acr_remote_breaker_recloses_total",
		"acr_remote_failovers_total",
		"acr_remote_breaker_open",
	}
	help := map[string]string{
		"acr_job_committed_epoch":      "Newest committed checkpoint epoch.",
		"acr_job_checkpoints_total":    "Committed checkpoint rounds.",
		"acr_job_hard_errors_total":    "Hard (fail-stop) errors recovered.",
		"acr_job_sdc_detected_total":   "Silent data corruptions detected by buddy compare.",
		"acr_job_rollbacks_total":      "Replica rollbacks.",
		"acr_job_flushed_epochs_total": "Epochs flushed to the durable tier.",
		"acr_job_folds_total":          "Degraded-mode folds.",
		"acr_job_degraded_nodes":       "Logical nodes currently folded.",
		"acr_job_resumed_epoch":        "Durable epoch this job warm-started from (0 = cold).",

		"acr_remote_flushed_epochs_total":   "Epochs landed on the remote tier (including failovers).",
		"acr_remote_retries_total":          "Remote store operations retried after transient faults.",
		"acr_remote_breaker_trips_total":    "Circuit breaker open transitions on the remote store.",
		"acr_remote_breaker_recloses_total": "Circuit breaker close transitions after successful probes.",
		"acr_remote_failovers_total":        "Remote puts diverted to the local fallback store.",
		"acr_remote_breaker_open":           "1 while the remote circuit breaker is open or half-open.",
	}
	typ := func(name string) string {
		if strings.HasSuffix(name, "_total") {
			return "counter"
		}
		return "gauge"
	}
	var samples []jobSample
	var tierSamples []struct {
		labels string
		tier   int
		v      float64
	}
	for _, st := range statuses {
		labels := fmt.Sprintf(`id="%d",job=%q`, st.ID, st.Name)
		var p *progressView
		switch {
		case st.Progress != nil:
			pv := progressView{
				committed: float64(st.Progress.CommittedEpoch), checkpoints: float64(st.Progress.Checkpoints),
				hard: float64(st.Progress.HardErrors), sdc: float64(st.Progress.SDCDetected),
				rollbacks: float64(st.Progress.Rollbacks), flushed: float64(st.Progress.FlushedEpochs),
				folds: float64(st.Progress.Folds), degraded: float64(st.Progress.DegradedNodes),
				resumed:       float64(st.Progress.ResumedEpoch),
				remoteFlushed: float64(st.Progress.RemoteFlushedEpochs), remoteRetries: float64(st.Progress.RemoteRetries),
				remoteTrips: float64(st.Progress.RemoteTrips), remoteRecloses: float64(st.Progress.RemoteRecloses),
				remoteFailovers: float64(st.Progress.RemoteFailovers), remoteOpen: float64(st.Progress.RemoteBreakerOpen),
			}
			for i, n := range st.Progress.TierRecoveries {
				pv.tiers[i] = float64(n)
			}
			p = &pv
		case st.Result != nil:
			// Prior-life jobs: the frozen final Stats (no committed-epoch
			// or degraded gauge there — those die with the machine).
			r := st.Result.Stats
			pv := progressView{
				checkpoints: float64(r.Checkpoints),
				hard:        float64(r.HardErrors), sdc: float64(r.SDCDetected),
				rollbacks: float64(r.Rollbacks), flushed: float64(r.FlushedEpochs),
				folds:         float64(r.Folds),
				resumed:       float64(r.ResumedEpoch),
				remoteFlushed: float64(r.RemoteFlushedEpochs), remoteRetries: float64(r.Remote.Retries),
				remoteTrips: float64(r.Remote.Trips), remoteRecloses: float64(r.Remote.Recloses),
				remoteFailovers: float64(r.Remote.Failovers),
			}
			if r.Remote.State != "" && r.Remote.State != "closed" {
				pv.remoteOpen = 1
			}
			for i, n := range r.TierRecoveries {
				pv.tiers[i] = float64(n)
			}
			p = &pv
		}
		if p == nil {
			continue
		}
		samples = append(samples, jobSample{labels: labels, vals: map[string]float64{
			"acr_job_committed_epoch":      p.committed,
			"acr_job_checkpoints_total":    p.checkpoints,
			"acr_job_hard_errors_total":    p.hard,
			"acr_job_sdc_detected_total":   p.sdc,
			"acr_job_rollbacks_total":      p.rollbacks,
			"acr_job_flushed_epochs_total": p.flushed,
			"acr_job_folds_total":          p.folds,
			"acr_job_degraded_nodes":       p.degraded,
			"acr_job_resumed_epoch":        p.resumed,

			"acr_remote_flushed_epochs_total":   p.remoteFlushed,
			"acr_remote_retries_total":          p.remoteRetries,
			"acr_remote_breaker_trips_total":    p.remoteTrips,
			"acr_remote_breaker_recloses_total": p.remoteRecloses,
			"acr_remote_failovers_total":        p.remoteFailovers,
			"acr_remote_breaker_open":           p.remoteOpen,
		}})
		for tier, n := range p.tiers {
			tierSamples = append(tierSamples, struct {
				labels string
				tier   int
				v      float64
			}{labels, tier, float64(n)})
		}
	}
	for _, name := range names {
		meta(name, typ(name), help[name])
		for _, smp := range samples {
			fmt.Fprintf(&b, "%s{%s} %g\n", name, smp.labels, smp.vals[name])
		}
	}
	meta("acr_job_tier_recoveries_total", "counter", "Recoveries by ladder tier (0 buddy memory, 1 durable flush, 2 older durable epoch, 3 remote object store).")
	sort.SliceStable(tierSamples, func(i, j int) bool { return tierSamples[i].tier < tierSamples[j].tier })
	for _, ts := range tierSamples {
		fmt.Fprintf(&b, "acr_job_tier_recoveries_total{%s,tier=\"%d\"} %g\n", ts.labels, ts.tier, ts.v)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// progressView flattens live Progress and frozen Stats into one shape for
// the exporter.
type progressView struct {
	committed, checkpoints, hard, sdc, rollbacks, flushed, folds, degraded, resumed float64
	remoteFlushed, remoteRetries, remoteTrips, remoteRecloses, remoteFailovers      float64
	remoteOpen                                                                      float64
	tiers                                                                           [4]float64
}
