package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"acr/internal/chaos"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// This file is the fleet's acceptance campaign: a seeded multi-job failure
// burst against a fleet with almost no slack — many jobs, one shared spare —
// verified against the serial golden reference. cmd/acrfleet runs the same
// campaign body from a JSON spec (the CI fleet-smoke job).

// BurstKill is one seeded failure: kill physical backing of (Replica, Node)
// in job Job, After the job has been admitted.
type BurstKill struct {
	Job     int           `json:"job"`
	Replica int           `json:"replica"`
	Node    int           `json:"node"`
	After   time.Duration `json:"after"`
}

// BurstSpec shapes a burst campaign.
type BurstSpec struct {
	Jobs         int           `json:"jobs"`
	SharedSpares int           `json:"shared_spares"`
	NodesPerJob  int           `json:"nodes_per_job"` // logical nodes per replica
	TasksPerNode int           `json:"tasks_per_node"`
	Iters        int           `json:"iters"`
	Interval     time.Duration `json:"interval"`
	Kills        []BurstKill   `json:"kills"`
	Watchdog     time.Duration `json:"watchdog"`
}

// BurstReport is the campaign outcome: fleet stats plus oracle violations
// (empty means the fleet survived with every job's golden result intact).
type BurstReport struct {
	Stats      FleetStats    `json:"stats"`
	Violations []string      `json:"violations,omitempty"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// DefaultBurstSpec is the acceptance shape: a 16-job fleet sharing a single
// spare, with a seeded failure burst hitting six different jobs — five more
// failures than the spare pool can absorb, so the brokering, folding, and
// waiting-list machinery all engage. Kills are derived from the seed so the
// plan is reproducible.
func DefaultBurstSpec(seed int64) BurstSpec {
	spec := BurstSpec{
		Jobs:         16,
		SharedSpares: 1,
		NodesPerJob:  2,
		TasksPerNode: 2,
		Iters:        12000,
		Interval:     2 * time.Millisecond,
		Watchdog:     2 * time.Minute,
	}
	rng := rand.New(rand.NewSource(seed))
	victims := rng.Perm(spec.Jobs)[:6] // distinct jobs: one kill each, so no
	// buddy-pair double faults (the ladder, not the fleet, owns those)
	for _, job := range victims {
		spec.Kills = append(spec.Kills, BurstKill{
			Job:     job,
			Replica: rng.Intn(2),
			Node:    rng.Intn(spec.NodesPerJob),
			After:   5*time.Millisecond + time.Duration(rng.Intn(40))*time.Millisecond,
		})
	}
	return spec
}

// RunBurst expands the homogeneous spec into its jobs and runs them as a
// campaign on a pool sized to fit them all at once.
func RunBurst(spec BurstSpec) (BurstReport, error) {
	jobs := make([]JobSpec, max(spec.Jobs, 0)) // none: New rejects the empty pool
	for i := range jobs {
		jobs[i] = JobSpec{
			Name:     fmt.Sprintf("burst-%02d", i),
			Priority: i % 4,
			Nodes:    spec.NodesPerJob,
			Tasks:    spec.TasksPerNode,
			Iters:    spec.Iters,
			Interval: spec.Interval,
		}
	}
	cfg := Config{Nodes: 2 * spec.NodesPerJob * spec.Jobs, Spares: spec.SharedSpares}
	return RunCampaign(cfg, jobs, spec.Kills, spec.Watchdog)
}

// RunCampaign is the one campaign body, shared by RunBurst and cmd/acrfleet:
// check every kill against the job it names, submit every job, arm the kills
// against admitted controllers, drain under the watchdog (<= 0 selects two
// minutes), and verify each job's final state bit-for-bit against the serial
// ring reference. A kill the jobs cannot take is an error, returned before
// anything is submitted; what goes wrong afterwards is a violation in the
// report.
func RunCampaign(cfg Config, jobSpecs []JobSpec, kills []BurstKill, watchdog time.Duration) (BurstReport, error) {
	for i, k := range kills {
		if k.Job < 0 || k.Job >= len(jobSpecs) {
			return BurstReport{}, fmt.Errorf("fleet: kill %d targets job %d of %d", i, k.Job, len(jobSpecs))
		}
		if nodes := jobSpecs[k.Job].Nodes; k.Replica < 0 || k.Replica > 1 || k.Node < 0 || k.Node >= nodes {
			return BurstReport{}, fmt.Errorf("fleet: kill %d targets replica %d node %d of job %d, which has 2 replicas of %d nodes",
				i, k.Replica, k.Node, k.Job, nodes)
		}
	}
	if watchdog <= 0 {
		watchdog = 2 * time.Minute
	}
	sched, err := New(cfg)
	if err != nil {
		return BurstReport{}, err
	}
	defer sched.Close()

	start := time.Now()
	jobs := make([]*Job, len(jobSpecs))
	for i, js := range jobSpecs {
		if jobs[i], err = sched.Submit(js); err != nil {
			return BurstReport{}, fmt.Errorf("fleet: submit job %d: %w", i, err)
		}
	}
	for _, k := range kills {
		k := k
		j := jobs[k.Job]
		go func() {
			<-j.Admitted()
			time.Sleep(k.After)
			if ctrl := j.Controller(); ctrl != nil {
				ctrl.KillNode(k.Replica, k.Node)
			}
		}()
	}

	stats, err := sched.Drain(watchdog)
	report := BurstReport{Stats: stats, Elapsed: time.Since(start)}
	if err != nil {
		report.Violations = append(report.Violations, "no-deadlock: "+err.Error())
		return report, nil
	}
	for i, j := range jobs {
		res := j.Wait()
		if !res.Completed {
			report.Violations = append(report.Violations,
				fmt.Sprintf("job %d (%s): did not complete: %s", i, res.Name, res.Err))
			continue
		}
		for _, e := range VerifyRing(j) {
			report.Violations = append(report.Violations,
				fmt.Sprintf("golden-result: job %d (%s): %v", i, res.Name, e))
		}
	}
	report.Stats = sched.Stats() // re-snapshot: Wait above is settled now
	return report, nil
}

// VerifyRing checks every task of both replicas of a completed ring-workload
// job against chaos.GoldenFinal, bit for bit — the fleet-level golden-result
// oracle. Only valid for jobs using the default workload (Factory nil).
func VerifyRing(j *Job) []error {
	spec := j.Spec()
	ctrl := j.Controller()
	if ctrl == nil {
		return []error{fmt.Errorf("job %q never admitted", spec.Name)}
	}
	numTasks := spec.Nodes * spec.Tasks
	golden := chaos.GoldenFinal(numTasks, spec.Iters)
	var errs []error
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < spec.Nodes; n++ {
			for t := 0; t < spec.Tasks; t++ {
				addr := runtime.Addr{Replica: rep, Node: n, Task: t}
				data, err := ctrl.Machine().PackTask(addr)
				if err != nil {
					errs = append(errs, fmt.Errorf("%v: %w", addr, err))
					continue
				}
				var prog chaos.RingProg
				if err := pup.Unpack(data, &prog); err != nil {
					errs = append(errs, fmt.Errorf("%v: %w", addr, err))
					continue
				}
				g := n*spec.Tasks + t
				if prog.Iter != spec.Iters {
					errs = append(errs, fmt.Errorf("%v: stopped at iteration %d of %d", addr, prog.Iter, spec.Iters))
				}
				if math.Float64bits(prog.Val) != math.Float64bits(golden[g]) {
					errs = append(errs, fmt.Errorf("%v: final value %v, golden %v (not bit-identical)", addr, prog.Val, golden[g]))
				}
			}
		}
	}
	return errs
}
