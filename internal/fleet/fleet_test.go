package fleet

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"
	"time"
)

// drain is the test harness's watchdog-wrapped shutdown.
func drain(t *testing.T, s *Scheduler) FleetStats {
	t.Helper()
	stats, err := s.Drain(90 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// mustSubmit fails the test on a submit error (scheduler closed).
func mustSubmit(t *testing.T, s *Scheduler, spec JobSpec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit %q: %v", spec.Name, err)
	}
	return j
}

// awaitCheckpoint blocks until the admitted job has committed a checkpoint:
// the kills below wait for the job to have something to recover from, not
// for a duration to have passed. The deadline only bounds a failure. The
// first commit lands 5-40 ms in on a loaded two-CPU host, so the victims run
// 40,000 laps (~150 ms) to still be mid-run when their kill arrives.
func awaitCheckpoint(t *testing.T, j *Job) {
	t.Helper()
	<-j.Admitted()
	deadline := time.After(30 * time.Second)
	for j.Controller().Progress().Checkpoints < 1 {
		select {
		case <-deadline:
			t.Fatalf("job %q committed no checkpoint", j.Spec().Name)
		default:
			goruntime.Gosched()
		}
	}
}

// TestAdmissionQueuesUntilResources: a pool fitting one job at a time must
// serialize three submitted jobs, all completing with golden results.
func TestAdmissionQueuesUntilResources(t *testing.T) {
	s, err := New(Config{Nodes: 4}) // one 2-node-per-replica job at a time
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var jobs []*Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, mustSubmit(t, s, JobSpec{
			Name: "serial-" + string(rune('a'+i)), Nodes: 2, Tasks: 1, Iters: 2000,
		}))
	}
	stats := drain(t, s)
	if stats.Admissions != 3 || stats.Completed != 3 || stats.Failed != 0 {
		t.Fatalf("admissions=%d completed=%d failed=%d, want 3/3/0",
			stats.Admissions, stats.Completed, stats.Failed)
	}
	for _, j := range jobs {
		if errs := VerifyRing(j); len(errs) > 0 {
			t.Fatalf("golden violation: %v", errs)
		}
	}
	// With room for only one job, at least the third job measurably queued
	// behind the first two.
	if stats.Jobs[2].QueueWait <= 0 {
		t.Errorf("third job queue wait = %v, want > 0", stats.Jobs[2].QueueWait)
	}
}

// TestAdmissionPriorityOrder: with the pool blocked by a running job, the
// higher-priority later submission must be admitted before the earlier
// low-priority one.
func TestAdmissionPriorityOrder(t *testing.T) {
	s, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Long enough (~40 ms) to still hold the pool through the 5 ms check
	// below: a one-task ring laps in ~100 ns.
	first := mustSubmit(t, s, JobSpec{Name: "first", Nodes: 1, Tasks: 1, Iters: 400000})
	<-first.Admitted()
	low := mustSubmit(t, s, JobSpec{Name: "low", Priority: 1, Nodes: 1, Tasks: 1, Iters: 500})
	high := mustSubmit(t, s, JobSpec{Name: "high", Priority: 5, Nodes: 1, Tasks: 1, Iters: 500})
	admitTime := func(j *Job) <-chan time.Time {
		ch := make(chan time.Time, 1)
		go func() { <-j.Admitted(); ch <- time.Now() }()
		return ch
	}
	lowAt, highAt := admitTime(low), admitTime(high)
	select {
	case <-low.Admitted():
		t.Fatal("low-priority job admitted while pool was full")
	case <-time.After(5 * time.Millisecond):
	}
	drain(t, s)
	if !high.Wait().Completed || !low.Wait().Completed {
		t.Fatal("jobs did not complete")
	}
	// Head-of-line priority order: low can only be admitted after high has
	// run and released the pool, so its admission is strictly later.
	if l, h := <-lowAt, <-highAt; !l.After(h) {
		t.Fatalf("low admitted at %v, before high at %v", l, h)
	}
}

// TestSpareBrokeringFromPool: a degraded job is granted the fleet's free
// spare and re-expands.
func TestSpareBrokeringFromPool(t *testing.T) {
	s, err := New(Config{Nodes: 4, Spares: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := mustSubmit(t, s, JobSpec{Name: "victim-of-fate", Nodes: 2, Tasks: 2, Iters: 40000})
	awaitCheckpoint(t, j)
	j.Controller().KillNode(0, 1)
	stats := drain(t, s)
	res := j.Wait()
	if !res.Completed {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.Stats.Folds != 1 {
		t.Fatalf("folds = %d, want 1 (job had no dedicated spares)", res.Stats.Folds)
	}
	if stats.SpareGrants != 1 || res.Grants != 1 {
		t.Fatalf("spare grants = %d (job %d), want 1", stats.SpareGrants, res.Grants)
	}
	if res.DegradedTime <= 0 {
		t.Errorf("degraded time = %v, want > 0", res.DegradedTime)
	}
	if got := j.Controller().Machine().FoldedCount(); got != 0 {
		t.Errorf("folded nodes at end = %d, want 0 after grant", got)
	}
	if errs := VerifyRing(j); len(errs) > 0 {
		t.Fatalf("golden violation: %v", errs)
	}
}

// TestLastSpareContention is the fleet-level chaos scenario from the issue:
// nodes die in two jobs nearly simultaneously, both outranking a third job
// that holds the fleet's only (dedicated) spare. Exactly one preemption may
// occur — the spare exists once — there must be no deadlock, and every job
// must still produce its golden result.
func TestLastSpareContention(t *testing.T) {
	s, err := New(Config{Nodes: 12, Spares: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// donor holds the only spare as a dedicated one; the free pool is empty.
	donor := mustSubmit(t, s, JobSpec{Name: "donor", Priority: 0, Nodes: 2, Tasks: 2, Iters: 40000, Spares: 1})
	a := mustSubmit(t, s, JobSpec{Name: "contender-a", Priority: 2, Nodes: 2, Tasks: 2, Iters: 40000})
	b := mustSubmit(t, s, JobSpec{Name: "contender-b", Priority: 1, Nodes: 2, Tasks: 2, Iters: 40000})
	<-donor.Admitted()
	awaitCheckpoint(t, a)
	awaitCheckpoint(t, b)
	// Near-simultaneous kills in both contenders.
	a.Controller().KillNode(0, 0)
	b.Controller().KillNode(1, 1)

	stats := drain(t, s)
	for _, j := range []*Job{donor, a, b} {
		res := j.Wait()
		if !res.Completed {
			t.Fatalf("job %s failed: %s", res.Name, res.Err)
		}
		if errs := VerifyRing(j); len(errs) > 0 {
			t.Fatalf("golden violation in %s: %v", res.Name, errs)
		}
	}
	if stats.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want exactly 1 (one spare to steal)", stats.Preemptions)
	}
	if donor.Wait().Preempted != 1 {
		t.Fatalf("donor preempted = %d, want 1", donor.Wait().Preempted)
	}
	// One contender won the stolen spare; the other either finished
	// degraded or was served later from the donor's returned capacity.
	aRes, bRes := a.Wait(), b.Wait()
	if aRes.Grants+bRes.Grants < 1 {
		t.Fatalf("no contender received a grant (a=%d b=%d)", aRes.Grants, bRes.Grants)
	}
	if aRes.Stats.Folds+bRes.Stats.Folds != 2 {
		t.Fatalf("folds a=%d b=%d, want 2 total (both killed with no dedicated spares)",
			aRes.Stats.Folds, bRes.Stats.Folds)
	}
}

// TestBurstCampaign runs the acceptance campaign at a CI-friendly size:
// 8 jobs, 1 shared spare, seeded kills, zero oracle violations.
func TestBurstCampaign(t *testing.T) {
	const nodes, iters = 2, 6000
	jobs := make([]JobSpec, 8)
	for i := range jobs {
		jobs[i] = JobSpec{Name: fmt.Sprintf("burst-%02d", i), Priority: i % 4,
			Nodes: nodes, Tasks: 2, Iters: iters, Interval: 2 * time.Millisecond}
	}
	// One kill each in six distinct jobs of a 16-job draw, so no buddy-pair
	// double faults (the ladder, not the fleet, owns those); the kills that
	// land past job 7 are dropped.
	rng := rand.New(rand.NewSource(7))
	var kills []BurstKill
	for _, job := range rng.Perm(16)[:6] {
		k := BurstKill{Job: job, Replica: rng.Intn(2), Node: rng.Intn(nodes),
			After: 5*time.Millisecond + time.Duration(rng.Intn(40))*time.Millisecond}
		if job < len(jobs) {
			kills = append(kills, k)
		}
	}
	if len(kills) < 2 {
		t.Fatalf("seed produced %d kills under job %d; pick a different seed", len(kills), len(jobs))
	}
	report, err := RunCampaign(Config{Nodes: 2 * nodes * len(jobs), Spares: 1}, jobs, kills, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range report.Violations {
		t.Error(v)
	}
	if report.Stats.Completed != len(jobs) {
		t.Fatalf("completed = %d, want %d", report.Stats.Completed, len(jobs))
	}
}

// TestCampaignRejectsBadKills: a kill naming a job, replica or node the
// campaign does not have is a spec error reported before anything runs, not
// an index panic in the victim's machine.
func TestCampaignRejectsBadKills(t *testing.T) {
	jobs := []JobSpec{{Name: "only", Nodes: 2, Tasks: 1, Iters: 100}}
	for _, tc := range []struct {
		name string
		kill BurstKill
		want string
	}{
		{"job", BurstKill{Job: 1}, "job 1 of 1"},
		{"replica", BurstKill{Replica: 2}, "replica 2 node 0 of job 0"},
		{"node", BurstKill{Node: 9}, "2 replicas of 2 nodes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunCampaign(Config{Nodes: 4}, jobs, []BurstKill{tc.kill}, time.Minute)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestRemoteTierThroughFleet: a job with the remote tier enabled routes
// its uploads through the fleet's remote-bandwidth arbiter, and the
// resilient wrapper's stats surface through the arbitration layer into the
// job's final core.Stats.
func TestRemoteTierThroughFleet(t *testing.T) {
	s, err := New(Config{Nodes: 4, RemoteBytesPerSec: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := mustSubmit(t, s, JobSpec{
		// Long enough for several commits on a fast host (16,000 laps
		// could end within 11 ms, after one): the remote cadence needs at
		// least two before anything uploads.
		Name: "remote", Nodes: 2, Tasks: 1, Iters: 64000,
		FlushEvery: 2, RemoteEvery: 2,
	})
	stats := drain(t, s)
	if stats.Completed != 1 || stats.Failed != 0 {
		t.Fatalf("completed=%d failed=%d: %+v", stats.Completed, stats.Failed, stats.Jobs)
	}
	if errs := VerifyRing(j); len(errs) > 0 {
		t.Fatalf("golden violation: %v", errs)
	}
	res := j.Wait()
	if res.Stats.RemoteFlushedEpochs == 0 {
		t.Fatalf("no epochs reached the remote tier: %+v", res.Stats)
	}
	if res.Stats.Remote.State != "closed" {
		t.Fatalf("remote breaker state %q, want closed (stats not unwrapped through the arbiter?)", res.Stats.Remote.State)
	}
	if stats.RemoteArbiter.WriteBytes == 0 {
		t.Fatalf("remote arbiter metered no upload traffic: %+v", stats.RemoteArbiter)
	}
	if stats.Arbiter.WriteBytes == 0 {
		t.Fatalf("local flush arbiter metered no traffic: %+v", stats.Arbiter)
	}
}
