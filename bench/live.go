package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"acr/internal/core"
	"acr/internal/runtime"
)

// Keys of repResult.lat (pooled event latencies) and repResult.cnt
// (additive counters). Metrics are derived from these in metrics.go.
const (
	latBlocked   = "blocked"    // application pause per committed round
	latRound     = "round"      // wall time per committed round
	latCapture   = "capture"    // capture phase wall per round
	latExchange  = "exchange"   // exchange phase wall per round
	latCompare   = "compare"    // compare phase wall per round
	latOther     = "other"      // round - capture - exchange - compare
	latRecover   = "recover"    // KillNode to rollback counted
	latRestore   = "restore"    // RestoreEpoch call
	latSubmit    = "submit"     // POST /api/v1/jobs round trip
	latComplete  = "complete"   // submit to terminal state
	latQueueWait = "queue_wait" // fleet submission to admission
	latDiskPut   = "disk_put"
	latDiskGet   = "disk_get"
	latRemotePut = "remote_put"

	cntBlockedS        = "blocked_s" // sum of blocked times
	cntRunS            = "run_s"     // what blocked_s is a share of: solve, or summed job run time
	cntRounds          = "rounds"
	cntAborted         = "aborted_rounds"
	cntRollbacks       = "rollbacks"
	cntTier0           = "tier0"
	cntTier1           = "tier1"
	cntTier2           = "tier2"
	cntTier3           = "tier3"
	cntFlushed         = "flushed_epochs"
	cntRemoteFlushed   = "remote_flushed_epochs"
	cntFrames          = "exchange_frames"
	cntFrameRetries    = "exchange_retries"
	cntCaptureS        = "capture_s"
	cntRoundS          = "round_s"
	cntExchangeBusyS   = "exchange_busy_s"
	cntExchangeWallS   = "exchange_wall_s"
	cntLinkSent        = "link_sent"
	cntLinkLost        = "link_lost"
	cntPackFast        = "pack_fast"
	cntPackSlow        = "pack_slow"
	cntChunksPacked    = "chunks_packed"
	cntChunksReused    = "chunks_reused"
	cntPoolGets        = "pool_gets"
	cntPoolHits        = "pool_hits"
	cntFlushBytes      = "flush_bytes"
	cntRemoteRetries   = "remote_retries"
	cntRemoteFailovers = "remote_failovers"
	cntIters           = "iters"
	cntBareS           = "bare_s"
	cntKills           = "kills"
	cntSDCs            = "sdcs"
	cntJobs            = "jobs"
	cntPolls           = "polls"
	cntJournalRecords  = "journal_records"
	cntJournalBytes    = "journal_bytes"
)

// repResult is what one repetition (one set-up plus one measured solve)
// of a workload produced.
type repResult struct {
	setup, solve time.Duration
	// attempted / failed count operations: committed rounds, kills, SDC
	// injections, restores and jobs.
	attempted, failed int
	// misses are correctness-gate failures; any miss fails the run.
	misses []string
	lat    map[string][]time.Duration
	cnt    map[string]float64
	// probes holds per-layer probe metrics by final metric name (traced
	// pass only).
	probes map[string]float64
}

func newRepResult() *repResult {
	return &repResult{lat: make(map[string][]time.Duration), cnt: make(map[string]float64)}
}

func (r *repResult) miss(format string, args ...any) {
	r.misses = append(r.misses, fmt.Sprintf(format, args...))
}

// size scales one repetition of a workload. The issue's full sizes are in
// the workloads table; a repetition runs them divided by a fixed factor.
type size struct {
	iters    int // application iterations (live workloads)
	kills    int // cg-faults: hard kills to inject
	sdcs     int // cg-faults: silent corruptions to inject
	restores int // bigstate-tiers: on-demand restores
	jobs     int // acrd-load: jobs to drain
	floats   int // bigstate-tiers: sweep array length per task
}

func (s size) div(d int) size {
	atLeast1 := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(1, n/d)
	}
	return size{
		iters:    atLeast1(s.iters),
		kills:    atLeast1(s.kills),
		sdcs:     atLeast1(s.sdcs),
		restores: atLeast1(s.restores),
		jobs:     atLeast1(s.jobs),
		floats:   s.floats,
	}
}

type faultKind int

const (
	faultKill faultKind = iota
	faultSDC
	faultRestore
)

// fault is one scheduled disturbance. It fires once the controller has
// committed afterCommits rounds — protocol progress, never a wall-clock
// offset — and only after the previous fault has been fully recovered.
type fault struct {
	kind         faultKind
	afterCommits int64
	addr         runtime.Addr // kill: Replica+Node; sdc: the task
}

// killEvery / sdcEvery / restoreEvery are the commit cadences of the fault
// schedules. Counts are fixed per run, so rework never feeds back into how
// many faults a run sees.
const (
	killEvery    = 4
	sdcEvery     = 6
	restoreEvery = 8
)

// cgSchedule builds the cg-faults schedule: a kill after every 4th commit
// (replica alternating, node from the seed) and an SDC after every 6th
// (task from the seed), merged in commit order with kills first on ties.
func cgSchedule(seed int64, sz size, nodes, tasks int) []fault {
	rng := rand.New(rand.NewSource(seed))
	var out []fault
	for k := 1; k <= sz.kills; k++ {
		out = append(out, fault{kind: faultKill, afterCommits: int64(k * killEvery),
			addr: runtime.Addr{Replica: k % 2, Node: rng.Intn(nodes)}})
	}
	for k := 1; k <= sz.sdcs; k++ {
		out = append(out, fault{kind: faultSDC, afterCommits: int64(k * sdcEvery),
			addr: runtime.Addr{Replica: rng.Intn(2), Node: rng.Intn(nodes), Task: rng.Intn(tasks)}})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].afterCommits < out[j].afterCommits })
	return out
}

// restoreSchedule builds the bigstate-tiers schedule: one on-demand
// restore of the newest durable epoch after every 8th commit.
func restoreSchedule(sz size) []fault {
	var out []fault
	for k := 1; k <= sz.restores; k++ {
		out = append(out, fault{kind: faultRestore, afterCommits: int64(k * restoreEvery)})
	}
	return out
}

// pollEvery is how often the injector samples Controller.Progress().
const pollEvery = 500 * time.Microsecond

// faultTimeout bounds the wait for one fault to be recovered; past it the
// fault counts as a failed operation.
const faultTimeout = 10 * time.Second

// injector fires a fault schedule against a running controller and times
// each recovery from outside, through the public Progress counters.
type injector struct {
	ctrl   *core.Controller
	faults []fault
	tr     *tracer
	parent int64

	recovers, restores []time.Duration
	// kills / sdcs / restoresTried count the faults actually fired.
	kills, sdcs, restoresTried int
	failures                   []string
}

// waitFor polls cond until it holds (ok), the run ends without it holding
// (ended), or faultTimeout passes (neither).
func (in *injector) waitFor(stop <-chan struct{}, cond func(core.Progress) bool) (ok, ended bool) {
	deadline := time.Now().Add(faultTimeout)
	for {
		if cond(in.ctrl.Progress()) {
			return true, false
		}
		select {
		case <-stop:
			// Run has returned: the counters are final.
			return cond(in.ctrl.Progress()), true
		default:
		}
		if time.Now().After(deadline) {
			return false, false
		}
		time.Sleep(pollEvery)
	}
}

// run fires the schedule in order. It returns when the schedule is
// exhausted or stop closes: the application finished first, and the
// remaining faults — including one fired so late that the run ended before
// the controller saw it — are not attempted.
func (in *injector) run(stop <-chan struct{}) {
	for _, f := range in.faults {
		if ok, _ := in.waitFor(stop, func(p core.Progress) bool { return p.Checkpoints >= f.afterCommits }); !ok {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		before := in.ctrl.Progress()
		switch f.kind {
		case faultKill:
			id := in.tr.begin(in.parent, "core", "kill_to_recovered")
			t0 := time.Now()
			in.ctrl.KillNode(f.addr.Replica, f.addr.Node)
			// Strong scheme: one hard error rolls the crashed replica back once.
			ok, ended := in.waitFor(stop, func(p core.Progress) bool {
				return p.HardErrors > before.HardErrors && p.Rollbacks > before.Rollbacks
			})
			d := time.Since(t0)
			in.tr.end(id)
			switch {
			case ok:
				in.kills++
				in.recovers = append(in.recovers, d)
			case ended:
				return
			default:
				in.kills++
				in.failures = append(in.failures, fmt.Sprintf("kill of r%d/n%d not recovered within %v", f.addr.Replica, f.addr.Node, faultTimeout))
			}
		case faultSDC:
			id := in.tr.begin(in.parent, "core", "sdc_to_rolled_back")
			in.ctrl.InjectSDCAtNextCheckpoint(f.addr)
			// Detection rolls both replicas back; wait for both so the
			// next fault's baseline is settled.
			ok, ended := in.waitFor(stop, func(p core.Progress) bool {
				return p.SDCDetected > before.SDCDetected && p.Rollbacks >= before.Rollbacks+2
			})
			in.tr.end(id)
			switch {
			case ok:
				in.sdcs++
			case ended:
				return // no round ran after the injection: it was never applied
			default:
				in.sdcs++
				in.failures = append(in.failures, fmt.Sprintf("SDC injected at %v not detected within %v", f.addr, faultTimeout))
			}
		case faultRestore:
			var epochs []uint64
			if ok, _ := in.waitFor(stop, func(core.Progress) bool {
				epochs = in.ctrl.DurableEpochs()
				return len(epochs) > 0
			}); !ok {
				return
			}
			newest := epochs[len(epochs)-1]
			in.restoresTried++
			id := in.tr.begin(in.parent, "core", "restore_epoch")
			t0 := time.Now()
			err := in.ctrl.RestoreEpoch(newest, faultTimeout)
			d := time.Since(t0)
			in.tr.end(id)
			if err != nil {
				in.failures = append(in.failures, fmt.Sprintf("RestoreEpoch(%d): %v", newest, err))
				continue
			}
			in.restores = append(in.restores, d)
		}
	}
}

// liveRun is one Controller.Run with its fault injector.
type liveRun struct {
	ctrl  *core.Controller
	stats core.Stats
	solve time.Duration
	inj   *injector
}

// runController runs the controller to completion under the fault
// schedule and times Run. Afterwards the controller is stopped; its machine
// still holds every task's final state.
func runController(ctrl *core.Controller, faults []fault, tr *tracer, parent int64) (*liveRun, error) {
	inj := &injector{ctrl: ctrl, faults: faults, tr: tr, parent: parent}
	stop := make(chan struct{})
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		inj.run(stop)
	}()
	id := tr.begin(parent, "core", "run")
	t0 := time.Now()
	stats, err := ctrl.Run()
	solve := time.Since(t0)
	tr.end(id)
	close(stop)
	<-injDone
	if err != nil {
		return nil, fmt.Errorf("Controller.Run: %w", err)
	}
	return &liveRun{ctrl: ctrl, stats: stats, solve: solve, inj: inj}, nil
}

// finalStates packs every task of both replicas of a finished run,
// indexed [replica][node*tasks+task].
func finalStates(ctrl *core.Controller, nodes, tasks int) ([2][][]byte, error) {
	var out [2][][]byte
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < nodes; n++ {
			for t := 0; t < tasks; t++ {
				addr := runtime.Addr{Replica: rep, Node: n, Task: t}
				data, err := ctrl.Machine().PackTask(addr)
				if err != nil {
					return out, fmt.Errorf("pack final state of %v: %w", addr, err)
				}
				out[rep] = append(out[rep], data)
			}
		}
	}
	return out, nil
}

// record folds a finished live run into the repetition's result: the
// end-to-end samples, the operation counts, and the core/runtime/netsim
// live counters read from the public Stats.
func (r *repResult) record(run *liveRun, iters int) {
	st := run.stats
	r.solve = run.solve
	r.lat[latBlocked] = st.BlockedTimes
	r.lat[latRound] = st.CheckpointTimes
	r.lat[latCapture] = st.CaptureTimes
	r.lat[latExchange] = st.ExchangeTimes
	r.lat[latCompare] = st.CompareTimes
	other := make([]time.Duration, len(st.CheckpointTimes))
	for i, d := range st.CheckpointTimes {
		other[i] = d - st.CaptureTimes[i] - st.ExchangeTimes[i] - st.CompareTimes[i]
	}
	r.lat[latOther] = other
	r.lat[latRecover] = run.inj.recovers
	r.lat[latRestore] = run.inj.restores

	c := r.cnt
	c[cntBlockedS] = sumDur(st.BlockedTimes).Seconds()
	c[cntRunS] = run.solve.Seconds()
	c[cntRounds] = float64(st.Checkpoints)
	c[cntAborted] = float64(st.AbortedRounds)
	c[cntRollbacks] = float64(st.Rollbacks)
	c[cntTier0] = float64(st.TierRecoveries[0])
	c[cntTier1] = float64(st.TierRecoveries[1])
	c[cntTier2] = float64(st.TierRecoveries[2])
	c[cntTier3] = float64(st.TierRecoveries[3])
	c[cntFlushed] = float64(st.FlushedEpochs)
	c[cntRemoteFlushed] = float64(st.RemoteFlushedEpochs)
	c[cntFrames] = float64(st.ExchangeFrames)
	c[cntFrameRetries] = float64(st.ExchangeRetries)
	c[cntCaptureS] = sumDur(st.CaptureTimes).Seconds()
	c[cntRoundS] = sumDur(st.CheckpointTimes).Seconds()
	c[cntExchangeBusyS] = sumDur(st.ExchangeBusyTimes).Seconds()
	c[cntExchangeWallS] = sumDur(st.ExchangeTimes).Seconds()
	c[cntLinkSent] = float64(st.Link.Sent)
	c[cntLinkLost] = float64(st.Link.Lost)
	c[cntPackFast] = float64(st.PackFastPath)
	c[cntPackSlow] = float64(st.PackSlowPath)
	c[cntChunksPacked] = float64(st.CaptureChunksPacked)
	c[cntChunksReused] = float64(st.CaptureChunksReused)
	c[cntPoolGets] = float64(st.Pool.Gets)
	c[cntPoolHits] = float64(st.Pool.Hits)
	c[cntRemoteRetries] = float64(st.Remote.Retries)
	c[cntRemoteFailovers] = float64(st.Remote.Failovers)
	c[cntIters] = float64(iters)
	c[cntKills] = float64(run.inj.kills)
	c[cntSDCs] = float64(run.inj.sdcs)

	r.attempted = st.Checkpoints + run.inj.kills + run.inj.sdcs + run.inj.restoresTried
	r.failed = len(run.inj.failures) + st.FlushErrors + st.RemoteFlushErrors
	for _, f := range run.inj.failures {
		fmt.Fprintf(logOut, "  failed operation: %s\n", f)
	}
}
