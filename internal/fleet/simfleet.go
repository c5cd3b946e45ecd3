package fleet

import (
	"math/rand"

	"acr/internal/sim"
)

// This file is the fleet's scale story: a discrete-event model of many
// checkpointing jobs — far larger than the live goroutine-backed machines
// can be — driven through sim.Sharded, one shard (event loop) per job. The
// jobs are coupled only through the shared disk-tier bandwidth: every
// window barrier recomputes a congestion factor from the fleet's aggregate
// flush demand, which stretches the next window's checkpoint costs. That is
// exactly the coupling discipline Sharded permits (cross-shard state
// exchanged at barriers only), so shards stay race-free and the fleet clock
// stays deterministic.
//
// Sixteen jobs at 8,192 cores per job are 131,072 simulated cores — the
// paper's scale target. A single event loop would serialize all jobs through
// one heap; one shard per job keeps the cost of a committed epoch flat as
// the job count grows.

// SimFleetSpec shapes a simulated fleet.
type SimFleetSpec struct {
	Jobs        int     `json:"jobs"`
	CoresPerJob int     `json:"cores_per_job"`
	Tau         float64 `json:"tau"`       // checkpoint interval, virtual s
	CkptCost    float64 `json:"ckpt_cost"` // uncongested commit cost, virtual s
	// CoreMTBF is one core's mean time between failures; a job's failure
	// rate is CoresPerJob/CoreMTBF (the paper's scale argument: more cores,
	// proportionally more failures).
	CoreMTBF     float64 `json:"core_mtbf"`
	RecoveryCost float64 `json:"recovery_cost"` // added to the commit after a failure
	// BytesPerCkpt and DiskBytesPerSec couple the jobs: when the fleet's
	// aggregate flush demand over a window exceeds the budget, every job's
	// next-window checkpoint cost stretches by the overload factor.
	BytesPerCkpt    float64 `json:"bytes_per_ckpt"`
	DiskBytesPerSec float64 `json:"disk_bytes_per_sec"`
	Horizon         float64 `json:"horizon"` // virtual seconds simulated
	Window          float64 `json:"window"`  // barrier window, virtual s
	Seed            int64   `json:"seed"`
}

// DefaultSimFleetSpec returns the benchmark shape for a job count: 8,192
// cores per job, so 16 jobs reach the paper's 131,072-core scale.
func DefaultSimFleetSpec(jobs int) SimFleetSpec {
	return SimFleetSpec{
		Jobs:            jobs,
		CoresPerJob:     8192,
		Tau:             1.0,
		CkptCost:        0.05,
		CoreMTBF:        500_000, // ~one failure per job per ~61 virtual s
		RecoveryCost:    0.5,
		BytesPerCkpt:    64 << 20,
		DiskBytesPerSec: 2 << 30, // 2 GiB/s shared budget
		Horizon:         400,
		Window:          8,
		Seed:            1,
	}
}

// SimFleetResult aggregates one simulated-fleet run.
type SimFleetResult struct {
	Jobs            int     `json:"jobs"`
	SimCores        int     `json:"sim_cores"`
	CommittedEpochs int64   `json:"committed_epochs"`
	Failures        int64   `json:"failures"`
	FleetClock      float64 `json:"fleet_clock"`
	MaxCongestion   float64 `json:"max_congestion"`
}

// RunSimFleet runs the fleet model to its horizon. Deterministic in the
// spec (per-job seeded RNGs, barrier-synchronized coupling).
func RunSimFleet(spec SimFleetSpec) SimFleetResult {
	s := sim.NewSharded(spec.Jobs, spec.Window)
	committed := make([]int64, spec.Jobs)
	failures := make([]int64, spec.Jobs)
	pendingRecovery := make([]int64, spec.Jobs)
	// congestion is written only at barriers, read only by the owning
	// shard's events; windowBytes is written by the owning shard, read and
	// zeroed at barriers.
	congestion := make([]float64, spec.Jobs)
	windowBytes := make([]float64, spec.Jobs)
	for i := range congestion {
		congestion[i] = 1
	}

	jobRate := float64(spec.CoresPerJob) / spec.CoreMTBF
	for j := 0; j < spec.Jobs; j++ {
		j := j
		rng := rand.New(rand.NewSource(spec.Seed + int64(j)*1_000_003))
		e := s.Shard(j)

		var commit func(*sim.Engine)
		commit = func(e *sim.Engine) {
			cost := spec.CkptCost * congestion[j]
			if n := pendingRecovery[j]; n > 0 {
				cost += float64(n) * spec.RecoveryCost
				pendingRecovery[j] = 0
			}
			committed[j]++
			windowBytes[j] += spec.BytesPerCkpt
			e.After(spec.Tau+cost, commit)
		}
		e.After(spec.Tau, commit)

		var fail func(*sim.Engine)
		fail = func(e *sim.Engine) {
			failures[j]++
			pendingRecovery[j]++
			e.After(rng.ExpFloat64()/jobRate, fail)
		}
		e.After(rng.ExpFloat64()/jobRate, fail)
	}

	maxCongestion := 1.0
	s.OnWindow = func(t float64) {
		demand := 0.0
		for j := range windowBytes {
			demand += windowBytes[j]
			windowBytes[j] = 0
		}
		factor := 1.0
		if spec.DiskBytesPerSec > 0 {
			if overload := demand / spec.Window / spec.DiskBytesPerSec; overload > 1 {
				factor = overload
			}
		}
		if factor > maxCongestion {
			maxCongestion = factor
		}
		for j := range congestion {
			congestion[j] = factor
		}
	}
	clock := s.Run(spec.Horizon)

	res := SimFleetResult{
		Jobs:          spec.Jobs,
		SimCores:      spec.Jobs * spec.CoresPerJob,
		FleetClock:    clock,
		MaxCongestion: maxCongestion,
	}
	for j := 0; j < spec.Jobs; j++ {
		res.CommittedEpochs += committed[j]
		res.Failures += failures[j]
	}
	return res
}
