package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/core"
	"acr/internal/trace"
)

// DefaultWatchdog bounds one run's wall time; expiry is the no-deadlock
// invariant firing.
const DefaultWatchdog = 20 * time.Second

// RunReport is the deterministic account of one scenario × seed run. It
// deliberately contains no wall-clock-dependent fields (durations, round
// counts): everything here is a function of the seed and the schedule, so
// two runs of the same seed produce byte-identical reports.
type RunReport struct {
	Scenario   string      `json:"scenario"`
	Seed       int64       `json:"seed"`
	Outcome    string      `json:"outcome"`
	Faults     []Record    `json:"faults"`
	Violations []Violation `json:"violations,omitempty"`
}

// RunResult pairs the report with the non-deterministic run diagnostics
// (kept out of the report on purpose).
type RunResult struct {
	Report   RunReport
	Coverage []PointCoverage
	Stats    core.Stats
}

// RunScenario executes one campaign run: build the machine, arm the
// engine, race the controller against the watchdog, and put the outcome to
// the oracle. A nil timeline skips injection tracing.
func RunScenario(scn Scenario, seed int64, watchdog time.Duration, tl *trace.Timeline) (RunResult, error) {
	if err := scn.Validate(); err != nil {
		return RunResult{}, err
	}
	if watchdog <= 0 {
		watchdog = DefaultWatchdog
	}
	scheme, _ := schemeOf(scn.Scheme)
	cmp, _ := comparisonOf(scn.Comparison)

	var store ckptstore.Store
	if scn.Store == "disk" {
		d, err := ckptstore.NewDisk("", nil)
		if err != nil {
			return RunResult{}, fmt.Errorf("chaos: %w", err)
		}
		defer d.Close()
		store = d
	}

	var exch *core.ExchangeConfig
	if scn.exchangeEnabled() {
		// The link's fault pattern is a pure function of the run seed, so
		// same-seed runs see the same loss/duplication/reorder schedule.
		exch = &core.ExchangeConfig{Loss: scn.Loss, Dup: scn.Dup, Reorder: scn.Reorder, Seed: seed}
	}
	engine := NewEngine(&scn, seed, tl)
	cfg := core.Config{
		NodesPerReplica: scn.Nodes,
		TasksPerNode:    scn.Tasks,
		Spares:          scn.Spares,
		Factory:         ringFactory(scn.Tasks, scn.Iters, scn.PadFloats),
		Scheme:          scheme,
		Comparison:      cmp,
		ChunkSize:       scn.ChunkSize,
		// No wall-clock checkpoint timer: the engine paces rounds off
		// progress reports (Scenario.PaceEvery), so the protocol phases a
		// fault schedule triggers on do not depend on host speed.
		CheckpointInterval: 0,
		HeartbeatInterval:  500 * time.Microsecond,
		HeartbeatTimeout:   5 * time.Millisecond,
		Store:              store,
		FlushEvery:         scn.FlushEvery,
		Degraded:           scn.Degraded,
		Exchange:           exch,
		Timeline:           tl,
		Chaos:              engine,
	}
	if scn.RemoteEvery > 0 {
		// The campaign remote is fault-free on its own (zero latency, zero
		// rates): every remote failure is scheduled by the engine through
		// the remote.put/remote.get points and dark mode, so the fault
		// pattern stays a pure function of the schedule. The Resilient
		// wrapper runs with no backoff sleeps and a fast probe so a flapping
		// scenario converges within the run.
		remote := ckptstore.NewRemote(ckptstore.RemoteOptions{Hook: engine})
		resil := ckptstore.NewResilient(remote, ckptstore.ResilientOptions{
			MaxRetries:       1,
			BreakerThreshold: 3,
			ProbeInterval:    time.Millisecond,
			Fallback:         ckptstore.NewMem(),
		})
		defer resil.Close()
		engine.BindRemote(remote)
		cfg.RemoteStore = resil
		cfg.RemoteFlushEvery = scn.RemoteEvery
	}
	ctrl, err := core.New(cfg)
	if err != nil {
		return RunResult{}, fmt.Errorf("chaos: %w", err)
	}
	engine.Bind(ctrl)

	type outcome struct {
		stats core.Stats
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		s, e := ctrl.Run()
		ch <- outcome{s, e}
	}()
	var stats core.Stats
	var runErr error
	timedOut := false
	select {
	case o := <-ch:
		stats, runErr = o.stats, o.err
	case <-time.After(watchdog):
		timedOut = true
		// Force the machine down so the run goroutine can exit; if the
		// hang survives even that, abandon it (the report already says
		// deadlock).
		ctrl.Machine().Stop()
		select {
		case o := <-ch:
			stats, runErr = o.stats, o.err
		case <-time.After(2 * time.Second):
		}
	}

	records := engine.Records()
	commits, corrupt, liveViol := engine.snapshot()
	vd := verify(oracleInput{
		scn:      &scn,
		ctrl:     ctrl,
		stats:    stats,
		runErr:   runErr,
		timedOut: timedOut,
		records:  records,
		commits:  commits,
		corrupt:  corrupt,
		liveViol: liveViol,
	})
	return RunResult{
		Report: RunReport{
			Scenario:   scn.Name,
			Seed:       seed,
			Outcome:    vd.Outcome,
			Faults:     records,
			Violations: vd.Violations,
		},
		Coverage: engine.Coverage(),
		Stats:    stats,
	}, nil
}

// CoverageEntry is the campaign-level view of one injection point.
type CoverageEntry struct {
	Point     point.ID `json:"point"`
	Exercised bool     `json:"exercised"`
}

// Report is a full campaign's deterministic output.
type Report struct {
	Campaign   string          `json:"campaign"`
	SeedBase   int64           `json:"seed_base"`
	Seeds      int             `json:"seeds"`
	Runs       []RunReport     `json:"runs"`
	Coverage   []CoverageEntry `json:"coverage"`
	Violations int             `json:"violations"`
	// Truncated counts runs skipped because the wall-clock budget ran out
	// (budget-limited campaigns trade the byte-identical guarantee for a
	// bounded runtime; run without a budget when diffing reports).
	Truncated int `json:"truncated,omitempty"`
}

// JSON renders the report with a stable field order and trailing newline.
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CSV renders one row per run.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,seed,outcome,violations,faults_executed\n")
	for _, run := range r.Runs {
		executed := 0
		for _, f := range run.Faults {
			if f.Executed {
				executed++
			}
		}
		fmt.Fprintf(&b, "%s,%d,%s,%d,%d\n", run.Scenario, run.Seed, run.Outcome, len(run.Violations), executed)
	}
	return b.String()
}

// CampaignConfig parameterizes RunCampaign.
type CampaignConfig struct {
	Name      string
	Scenarios []Scenario
	SeedBase  int64 // first seed; seeds are SeedBase..SeedBase+Seeds-1
	Seeds     int   // seeds per scenario
	Parallel  int   // concurrent runs; <= 0 means 4
	Budget    time.Duration
	Watchdog  time.Duration
	// OnRun, if non-nil, is called after each finished run (from worker
	// goroutines; must be safe for concurrent use).
	OnRun func(RunResult)
}

// RunCampaign sweeps every scenario across the seed range with a worker
// pool. Results land at fixed positions (scenario-major, seed-minor), so
// the report is independent of completion order; with no budget it is
// byte-identical across invocations of the same configuration.
func RunCampaign(cfg CampaignConfig) (*Report, error) {
	if len(cfg.Scenarios) == 0 {
		return nil, fmt.Errorf("chaos: campaign has no scenarios")
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 4
	}
	for i := range cfg.Scenarios {
		if err := cfg.Scenarios[i].Validate(); err != nil {
			return nil, err
		}
	}

	type job struct {
		scn  int
		seed int64
		idx  int
	}
	jobs := make([]job, 0, len(cfg.Scenarios)*cfg.Seeds)
	for s := range cfg.Scenarios {
		for k := 0; k < cfg.Seeds; k++ {
			jobs = append(jobs, job{scn: s, seed: cfg.SeedBase + int64(k), idx: len(jobs)})
		}
	}

	deadline := time.Time{}
	if cfg.Budget > 0 {
		deadline = time.Now().Add(cfg.Budget)
	}
	results := make([]*RunResult, len(jobs))
	var firstErr error
	var truncated int
	var mu sync.Mutex
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				if !deadline.IsZero() && time.Now().After(deadline) {
					mu.Lock()
					truncated++
					mu.Unlock()
					continue
				}
				res, err := RunScenario(cfg.Scenarios[j.scn], j.seed, cfg.Watchdog, nil)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					results[j.idx] = &res
				}
				mu.Unlock()
				if err == nil && cfg.OnRun != nil {
					cfg.OnRun(res)
				}
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	rep := &Report{Campaign: cfg.Name, SeedBase: cfg.SeedBase, Seeds: cfg.Seeds, Truncated: truncated}
	fired := make(map[point.ID]bool)
	for _, res := range results {
		if res == nil {
			continue
		}
		rep.Runs = append(rep.Runs, res.Report)
		rep.Violations += len(res.Report.Violations)
		for _, pc := range res.Coverage {
			if pc.Fired > 0 {
				fired[pc.Point] = true
			}
		}
	}
	for _, id := range point.All() {
		rep.Coverage = append(rep.Coverage, CoverageEntry{Point: id, Exercised: fired[id]})
	}
	return rep, nil
}

// DefaultCampaign is the stock scenario set: together the six scenarios
// exercise every registered injection point, all three schemes, both
// comparison modes, and both storage tiers, while staying violation-free —
// the soak baseline a regression breaks loudly.
func DefaultCampaign() []Scenario {
	return []Scenario{
		{
			// Crash immediately before a capture; strong scheme rolls the
			// replica back through the store's read path.
			Name: "strong-crash-capture", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			Faults: []Fault{{
				Kind:    Crash,
				Target:  Target{Replica: 1, Node: 0, Task: -1},
				Trigger: Trigger{Point: point.CoreCapture, Occurrence: 2},
			}},
		},
		{
			// One in-flight message bit flip early in the run; buddy
			// comparison must catch the divergence and replay cleanly.
			Name: "strong-msg-bitflip", Nodes: 2, Tasks: 2, Spares: 1, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			Faults: []Fault{{
				Kind:    MsgBitFlip,
				Target:  Target{Replica: -1, Node: -1, Task: -1},
				Trigger: Trigger{Point: point.RuntimeDeliver, Occurrence: 5},
			}},
		},
		{
			// Medium scheme: crash during a commit, forced recovery
			// checkpoint by the healthy replica.
			Name: "medium-crash-recovery", Nodes: 2, Tasks: 2, Spares: 3, Iters: 60,
			Scheme: "medium", Comparison: "checksum", Store: "mem", PaceEvery: 40,
			Faults: []Fault{{
				Kind:    Crash,
				Target:  Target{Replica: 0, Node: -1, Task: -1},
				Trigger: Trigger{Point: point.CoreCommit, Occurrence: 2},
			}},
		},
		{
			// Both buddies of one node die at a consensus cut, which
			// destroys every in-memory copy of that node's checkpoints in
			// both replicas. The durable flush tier (every 2nd commit) is
			// the escalation target: recovery must climb the ladder to the
			// flushed epoch and complete without ErrUnrecoverable.
			Name: "strong-buddy-double-crash", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			FlushEvery: 2,
			Faults: []Fault{{
				Kind:    BuddyDoubleCrash,
				Target:  Target{Replica: 0, Node: 1, Task: -1},
				Trigger: Trigger{Point: point.CorePostConsensus, Occurrence: 3},
			}},
		},
		{
			// Spare pool empty at the first crash: degraded mode folds the
			// dead node onto the least-loaded survivor and the job finishes
			// shrunk, with the same final result.
			Name: "degraded-spare-exhaustion", Nodes: 2, Tasks: 2, Spares: 0, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			Degraded: true,
			Faults: []Fault{{
				Kind:    Crash,
				Target:  Target{Replica: 1, Node: 1, Task: -1},
				Trigger: Trigger{Point: point.CorePostConsensus, Occurrence: 2},
			}},
		},
		{
			// A lossy, duplicating link under the hardened exchange: the
			// medium recovery's checkpoint transfer and every round's
			// compare-result message must complete via per-chunk acks and
			// retransmission, never tripping the watchdog.
			Name: "medium-lossy-exchange", Nodes: 2, Tasks: 2, Spares: 3, Iters: 60,
			Scheme: "medium", Comparison: "checksum", Store: "mem", PaceEvery: 40,
			Loss: 0.08, Dup: 0.04,
			Faults: []Fault{{
				Kind:    Crash,
				Target:  Target{Replica: 0, Node: -1, Task: -1},
				Trigger: Trigger{Point: point.CoreCommit, Occurrence: 2},
			}},
		},
		{
			// A real exchange window under the oracle: the padded state is 17
			// chunks of 32 bytes, rounds are paced 70 iterations apart, and
			// the crash lands 60 iterations after the first commit — so the
			// medium recovery's mirror finds every chunk changed against its
			// base and ships each task as a 17-frame window, all in flight at
			// once over a lossy, reordering link, with one frame in the middle
			// of the first window dropped on top. Every other scenario that
			// crosses the link ships one- to three-frame transfers.
			Name: "medium-lossy-exchange-padded", Nodes: 2, Tasks: 2, Spares: 3, Iters: 150,
			Scheme: "medium", Comparison: "checksum", Store: "mem", PaceEvery: 560,
			PadFloats: 64, ChunkSize: 32,
			Loss: 0.1, Reorder: 0.1,
			Faults: []Fault{
				{
					Kind:    Crash,
					Target:  Target{Replica: 0, Node: -1, Task: -1},
					Trigger: Trigger{Point: point.RuntimeProgress, Occurrence: 130},
				},
				{
					Kind:    FrameDrop,
					Target:  Target{Replica: -1, Node: -1, Task: -1},
					Trigger: Trigger{Point: point.NetFrame, Occurrence: 14},
				},
			},
		},
		{
			// Deterministic frame loss on an otherwise clean link: the Nth
			// exchange frame is discarded before the link, forcing exactly
			// one retransmission cycle.
			Name: "exchange-frame-drop", Nodes: 2, Tasks: 2, Spares: 1, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			Faults: []Fault{{
				Kind:    FrameDrop,
				Target:  Target{Replica: -1, Node: -1, Task: -1},
				Trigger: Trigger{Point: point.NetFrame, Occurrence: 2},
			}},
		},
		{
			// Weak scheme: a crash plus a stalled heartbeat; recovery waits
			// for the next periodic checkpoint.
			Name: "weak-crash-heartbeat-delay", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
			Scheme: "weak", Comparison: "checksum", Store: "mem", PaceEvery: 40,
			Faults: []Fault{
				{
					Kind:    HeartbeatDelay,
					Target:  Target{Replica: 1, Node: 0, Task: 0},
					Trigger: Trigger{Point: point.RuntimeHeartbeat, Occurrence: 4},
					Delay:   Duration(2 * time.Millisecond),
				},
				{
					Kind:    Crash,
					Target:  Target{Replica: 0, Node: 1, Task: -1},
					Trigger: Trigger{Point: point.CorePostConsensus, Occurrence: 2},
				},
			},
		},
		{
			// Checkpoint corruption on the write path (memory tier): the
			// full comparison must flag the round as SDC and roll back.
			Name: "strong-ckpt-corrupt-mem", Nodes: 2, Tasks: 2, Spares: 1, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			Faults: []Fault{{
				Kind:    CkptCorrupt,
				Target:  Target{Replica: 0, Node: -1, Task: -1},
				Trigger: Trigger{Point: point.StoreWrite, Occurrence: 2},
			}},
		},
		{
			// Write-tracked pad under crash recovery: every capture runs
			// the dirty splice/patch path (the pad body is mostly clean
			// each round), the small chunk size puts the clean pad tail in
			// its own chunks, and a mid-run crash forces a restore plus
			// replay. The restored pad must replay to the golden pad bit
			// for bit — any splice of a byte the tracker marked, or any
			// skipped re-encode, surfaces as a golden-result violation.
			Name: "strong-dirty-pad-crash", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			PadFloats: 8, ChunkSize: 32,
			Faults: []Fault{{
				Kind:    Crash,
				Target:  Target{Replica: 1, Node: 0, Task: -1},
				Trigger: Trigger{Point: point.CoreCapture, Occurrence: 3},
			}},
		},
		{
			// The remote tier goes fully dark at the first commit and stays
			// dark. Every remote upload fails, the breaker trips, later
			// epochs fail over to the Resilient wrapper's local fallback —
			// and when both buddies of a node die, recovery must complete
			// through the LOCAL tiers (durable flush, tier <= 2): a dark
			// remote may never abort a job.
			Name: "remote-dark-failover", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			FlushEvery: 2, RemoteEvery: 2,
			Faults: []Fault{
				{
					Kind:    RemoteDark,
					Target:  Target{Replica: -1, Node: -1, Task: -1},
					Trigger: Trigger{Point: point.CoreCommit, Occurrence: 1},
				},
				{
					Kind:    BuddyDoubleCrash,
					Target:  Target{Replica: 0, Node: 1, Task: -1},
					Trigger: Trigger{Point: point.CorePostConsensus, Occurrence: 3},
				},
			},
		},
		{
			// No local durable tier at all: when both buddies of a node die,
			// the ladder's only escalation target is the remote object store
			// (tier 3). The first remote read is force-failed in flight, so
			// the restore also proves the Resilient retry path end to end.
			Name: "remote-tier-recovery", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			RemoteEvery: 2,
			Faults: []Fault{
				{
					Kind:    RemoteOpFail,
					Target:  Target{Replica: -1, Node: -1, Task: -1},
					Trigger: Trigger{Point: point.RemoteGet, Occurrence: 1},
				},
				{
					Kind:    BuddyDoubleCrash,
					Target:  Target{Replica: 0, Node: 1, Task: -1},
					Trigger: Trigger{Point: point.CorePostConsensus, Occurrence: 3},
				},
			},
		},
		{
			// A flapping remote: one in-flight upload force-failed (absorbed
			// by a retry), then a bounded outage long enough to trip the
			// breaker. Probes burn the remaining outage budget, the breaker
			// re-closes, and later epochs land on the remote again — the
			// job converges with no violations.
			Name: "remote-flapping-breaker", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
			Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
			RemoteEvery: 1,
			Faults: []Fault{
				{
					Kind:    RemoteOpFail,
					Target:  Target{Replica: -1, Node: -1, Task: -1},
					Trigger: Trigger{Point: point.RemotePut, Occurrence: 1},
				},
				{
					Kind:    RemoteDark,
					Target:  Target{Replica: -1, Node: -1, Task: -1},
					Trigger: Trigger{Point: point.CoreCommit, Occurrence: 2},
					Count:   8,
				},
			},
		},
		{
			// At-rest corruption on the disk tier followed by a crash: the
			// restore path's re-verification must report ErrCorrupt
			// instead of silently restoring bad state.
			Name: "strong-ckpt-corrupt-disk", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
			Scheme: "strong", Comparison: "checksum", Store: "disk", PaceEvery: 40,
			Faults: []Fault{
				{
					Kind:    CkptCorrupt,
					Target:  Target{Replica: 0, Node: 0, Task: 0},
					Trigger: Trigger{Point: point.StoreWrite, Occurrence: 1},
				},
				{
					Kind:    Crash,
					Target:  Target{Replica: 0, Node: 1, Task: -1},
					Trigger: Trigger{Point: point.CoreCommit, Occurrence: 1},
				},
			},
		},
	}
}

// SensitivityScenario is the oracle's own regression check: a Both-mode
// corruption plants the identical bit flip in both buddies' stored
// checkpoints — semantically, a disabled buddy comparison — and a later
// crash forces a restore from the corrupted epoch. A healthy oracle MUST
// report an sdc-escape (and golden-result) violation here; if this
// scenario ever comes back clean, the oracle has gone blind.
func SensitivityScenario() Scenario {
	return Scenario{
		Name: "oracle-sensitivity-both-corrupt", Nodes: 2, Tasks: 2, Spares: 2, Iters: 60,
		Scheme: "strong", Comparison: "full", Store: "mem", PaceEvery: 40,
		Faults: []Fault{
			{
				Kind:    CkptCorrupt,
				Target:  Target{Replica: 0, Node: 0, Task: 0},
				Trigger: Trigger{Point: point.StoreWrite, Occurrence: 1},
				Both:    true,
			},
			{
				Kind:    Crash,
				Target:  Target{Replica: 0, Node: 1, Task: -1},
				Trigger: Trigger{Point: point.CoreCommit, Occurrence: 1},
			},
		},
	}
}

// resolvedCopy returns the scenario with its fault schedule pre-resolved
// for the seed, exactly as NewEngine would resolve it. Minimization uses
// this so removing faults from the schedule cannot shift the wildcard
// resolution of the survivors.
func resolvedCopy(scn Scenario, seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	out := scn
	out.Faults = scn.resolveFaults(rng)
	return out
}
