package fleet

import (
	"fmt"
	"math"
	"time"

	"acr/internal/chaos"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// This file is the fleet's acceptance campaign: a seeded multi-job failure
// burst against a fleet with almost no slack — many jobs, one shared spare —
// verified against the serial golden reference. cmd/acrfleet runs it from a
// JSON spec (the CI fleet-smoke job).

// BurstKill is one seeded failure: kill physical backing of (Replica, Node)
// in job Job, After the job has been admitted.
type BurstKill struct {
	Job     int           `json:"job"`
	Replica int           `json:"replica"`
	Node    int           `json:"node"`
	After   time.Duration `json:"after"`
}

// BurstReport is the campaign outcome: fleet stats plus oracle violations
// (empty means the fleet survived with every job's golden result intact).
type BurstReport struct {
	Stats      FleetStats    `json:"stats"`
	Violations []string      `json:"violations,omitempty"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// RunCampaign is the campaign body cmd/acrfleet runs: check every kill against the job it names, submit every job, arm the kills
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
