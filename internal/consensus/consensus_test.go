package consensus

import (
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"acr/internal/pup"
	"acr/internal/runtime"
)

// stepProg runs Iters iterations; each iteration exchanges a message with a
// ring neighbour (so stragglers really block frontier tasks' inputs) and
// does a variable amount of fake work to desynchronize progress.
type stepProg struct {
	Iter  int
	Iters int
	Acc   int64
	seed  int64
}

func (s *stepProg) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&s.Iter)
	p.Label("iters")
	p.Int(&s.Iters)
	p.Label("acc")
	p.Int64(&s.Acc)
}

func (s *stepProg) Run(ctx *runtime.Ctx) error {
	rng := rand.New(rand.NewSource(s.seed + int64(ctx.GlobalTask())))
	n := ctx.NumTasks()
	me := ctx.GlobalTask()
	next := ctx.AddrOfGlobal((me + 1) % n)
	for s.Iter < s.Iters {
		if err := ctx.Send(next, 0, int64(s.Iter)); err != nil {
			return err
		}
		msg, err := ctx.Recv()
		if err != nil {
			return err
		}
		s.Acc += msg.Data.(int64)
		// Desynchronize: occasionally dawdle, by giving up the processor a
		// seeded number of times rather than for a duration.
		if rng.Intn(4) == 0 {
			for i := rng.Intn(20); i > 0; i-- {
				goruntime.Gosched()
			}
		}
		s.Iter++
		if err := ctx.Progress(s.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

func machineWith(t *testing.T, coord *Coordinator, nodes, tasks, iters int) *runtime.Machine {
	t.Helper()
	m, err := runtime.NewMachine(runtime.Config{
		NodesPerReplica: nodes,
		TasksPerNode:    tasks,
		Factory: func(addr runtime.Addr) runtime.Program {
			return &stepProg{Iters: iters, seed: 42}
		},
		Gate: coord,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

// waitProgress blocks until the task has reported at least iteration iter:
// the tests below wait for the application to have got somewhere, not for a
// duration to have passed. The deadline only bounds a failure.
func waitProgress(t *testing.T, c *Coordinator, addr runtime.Addr, iter int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for c.Progress(addr) < iter {
		select {
		case <-deadline:
			t.Fatalf("%v never reached iteration %d (at %d)", addr, iter, c.Progress(addr))
		default:
			goruntime.Gosched()
		}
	}
}

func TestIdlePassthrough(t *testing.T) {
	c := New(2, 2)
	m := machineWith(t, c, 2, 2, 50)
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.Phase() != Idle {
		t.Fatal("phase should stay idle without a request")
	}
	// Progress was recorded (phase 1).
	if got := c.Progress(runtime.Addr{Replica: 0, Node: 0, Task: 0}); got != 49 {
		t.Fatalf("recorded progress = %d, want 49", got)
	}
	if c.MaxProgress(BothReplicas) != 49 {
		t.Fatalf("max progress = %d", c.MaxProgress(BothReplicas))
	}
}

func TestProgressUnknownTask(t *testing.T) {
	c := New(1, 1)
	if c.Progress(runtime.Addr{}) != -1 {
		t.Fatal("unknown task should report -1")
	}
	if c.MaxProgress(BothReplicas) != -1 {
		t.Fatal("empty coordinator max should be -1")
	}
}

// The core protocol property: a requested cut parks every task at exactly
// the same iteration, and no task has started a later iteration.
func TestConsistentCut(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		c := New(2, 2)
		m := machineWith(t, c, 2, 2, 100000)
		m.Start()
		// Let the app desynchronize, then request a cut.
		waitProgress(t, c, runtime.Addr{Replica: 1, Node: 1, Task: 1}, 20+10*trial)
		ready, err := c.Request(BothReplicas)
		if err != nil {
			t.Fatal(err)
		}
		var target int
		select {
		case target = <-ready:
		case <-time.After(10 * time.Second):
			t.Fatalf("trial %d: cut never completed (parked %d)", trial, c.ParkedCount())
		}
		if c.Phase() != Ready {
			t.Fatal("phase should be Ready")
		}
		// Every task is parked with a packed state cursor exactly at
		// target+1 (it finished iteration target and advanced).
		for rep := 0; rep < 2; rep++ {
			for n := 0; n < 2; n++ {
				for tk := 0; tk < 2; tk++ {
					addr := runtime.Addr{Replica: rep, Node: n, Task: tk}
					data, err := m.PackTask(addr)
					if err != nil {
						t.Fatal(err)
					}
					var snap stepProg
					if err := pup.Unpack(data, &snap); err != nil {
						t.Fatal(err)
					}
					if snap.Iter != target+1 {
						t.Fatalf("trial %d: %v parked at iter %d, cut target %d", trial, addr, snap.Iter, target)
					}
				}
			}
		}
		// Buddy states must be identical at the cut (the SDC detection
		// premise).
		for n := 0; n < 2; n++ {
			for tk := 0; tk < 2; tk++ {
				d0, err := m.PackTask(runtime.Addr{Replica: 0, Node: n, Task: tk})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.CheckTask(runtime.Addr{Replica: 1, Node: n, Task: tk}, d0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Match {
					t.Fatalf("buddy states differ at the cut: %v", res.Mismatches)
				}
			}
		}
		c.Release()
		if c.Phase() != Idle {
			t.Fatal("release should return to Idle")
		}
		m.Stop()
	}
}

func TestSingleReplicaScope(t *testing.T) {
	c := New(2, 1)
	m := machineWith(t, c, 2, 1, 100000)
	m.Start()
	waitProgress(t, c, runtime.Addr{Replica: 1, Node: 1, Task: 0}, 10)
	ready, err := c.Request(OnlyReplica(1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("single-replica cut never completed")
	}
	// Replica 0 tasks are not parked; they keep making progress.
	// (waitProgress fails the test if it does not.)
	a0 := runtime.Addr{Replica: 0, Node: 0, Task: 0}
	waitProgress(t, c, a0, c.Progress(a0)+10)
	c.Release()
}

func TestRequestValidation(t *testing.T) {
	c := New(1, 1)
	if _, err := c.Request(Scope{}); err == nil {
		t.Fatal("empty scope must fail")
	}
	m := machineWith(t, c, 1, 1, 100000)
	m.Start()
	waitProgress(t, c, runtime.Addr{Replica: 1}, 5)
	ready, err := c.Request(BothReplicas)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(BothReplicas); err == nil {
		t.Fatal("second concurrent round must fail")
	}
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("cut never completed")
	}
	c.Release()
}

func TestRequestAfterCompletion(t *testing.T) {
	c := New(1, 2)
	m := machineWith(t, c, 1, 2, 5)
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	ready, err := c.Request(BothReplicas)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case target := <-ready:
		// The cut is one past the maximum reported progress (the job
		// finished at iteration 4, so the label is 5); all tasks are
		// done, which satisfies the cut trivially.
		if target != 5 {
			t.Fatalf("target = %d, want 5", target)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("completed job should be instantly ready")
	}
	c.Release()
}

func TestAbortMidRound(t *testing.T) {
	c := New(2, 2)
	m := machineWith(t, c, 2, 2, 100000)
	m.Start()
	a0 := runtime.Addr{Replica: 0, Node: 0, Task: 0}
	waitProgress(t, c, a0, 10)
	if _, err := c.Request(BothReplicas); err != nil {
		t.Fatal(err)
	}
	// Abort without waiting for ready: everything resumes.
	c.Release()
	if c.Phase() != Idle {
		t.Fatal("phase after abort should be Idle")
	}
	// Tasks resume after the abort: well past anything the aborted round
	// could have let them reach (its target was within a ring's length of p).
	waitProgress(t, c, a0, c.Progress(a0)+20)
}

func TestForgetAndUndone(t *testing.T) {
	c := New(1, 1)
	m := machineWith(t, c, 1, 1, 3)
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.MaxProgress(OnlyReplica(0)) != 2 {
		t.Fatalf("max = %d", c.MaxProgress(OnlyReplica(0)))
	}
	c.ForgetProgress(0)
	if c.MaxProgress(OnlyReplica(0)) != -1 {
		t.Fatal("ForgetProgress did not clear replica 0")
	}
	if c.MaxProgress(OnlyReplica(1)) != 2 {
		t.Fatal("ForgetProgress cleared the wrong replica")
	}
	c.Undone(0) // must not panic; replica 1 completion marks survive
	ready, err := c.Request(OnlyReplica(1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("replica 1 (all done) should be instantly ready")
	}
	c.Release()
}

func TestPhaseString(t *testing.T) {
	if Idle.String() != "idle" || Deciding.String() != "deciding" || Ready.String() != "ready" {
		t.Fatal("Phase.String broken")
	}
	if Phase(9).String() == "" {
		t.Fatal("unknown phase should format")
	}
}

// Stress: repeated cuts against a long-running app always converge and
// always produce consistent states.
func TestRepeatedCuts(t *testing.T) {
	c := New(2, 2)
	m := machineWith(t, c, 2, 2, 1000000)
	m.Start()
	lastTarget := -1
	for round := 0; round < 10; round++ {
		// Let the app run on past the previous cut before the next request.
		waitProgress(t, c, runtime.Addr{Replica: round % 2, Node: 1, Task: 1}, lastTarget+10)
		ready, err := c.Request(BothReplicas)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case target := <-ready:
			if target < lastTarget {
				t.Fatalf("cut target moved backwards: %d after %d", target, lastTarget)
			}
			lastTarget = target
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d never completed", round)
		}
		c.Release()
	}
}

// A mixed workload where tasks finish at different times: cuts requested
// while some tasks are done and others are running must still converge.
func TestCutWithPartialCompletion(t *testing.T) {
	c := New(1, 2)
	factory := func(addr runtime.Addr) runtime.Program {
		iters := 3
		if addr.Task == 1 {
			iters = 1 << 40 // still running whenever the request comes; Stop ends it
		}
		return &stepProgNoRing{Iters: iters}
	}
	m, err := runtime.NewMachine(runtime.Config{
		NodesPerReplica: 1, TasksPerNode: 2, Factory: factory, Gate: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	m.Start()
	// Task 0 done, task 1 running.
	for rep := 0; rep < 2; rep++ {
		waitProgress(t, c, runtime.Addr{Replica: rep, Task: 0}, 2)
		for !m.TaskCompleted(runtime.Addr{Replica: rep, Task: 0}) {
			goruntime.Gosched()
		}
		waitProgress(t, c, runtime.Addr{Replica: rep, Task: 1}, 10)
	}
	ready, err := c.Request(BothReplicas)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("cut with completed tasks never converged")
	}
	c.Release()
}

// stepProgNoRing iterates without communication, for completion-mix tests.
type stepProgNoRing struct {
	Iter, Iters int
}

func (s *stepProgNoRing) Pup(p *pup.PUPer) {
	p.Int(&s.Iter)
	p.Int(&s.Iters)
}

func (s *stepProgNoRing) Run(ctx *runtime.Ctx) error {
	for s.Iter < s.Iters {
		s.Iter++
		if err := ctx.Progress(s.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// TestSparseReportingEscalation drives the coordinator directly with tasks
// that report only every other iteration: the decided cut lands on an
// unreachable odd iteration first, and the escalation path in Report must
// raise the target to the next commonly reachable value.
func TestSparseReportingEscalation(t *testing.T) {
	c := New(1, 1) // 2 tasks total (one per replica)
	a0 := runtime.Addr{Replica: 0, Node: 0, Task: 0}
	a1 := runtime.Addr{Replica: 1, Node: 0, Task: 0}
	// Both tasks have reported iteration 4 and are executing 5..6.
	if c.Report(a0, 4) != nil || c.Report(a1, 4) != nil {
		t.Fatal("idle reports must not park")
	}
	ready, err := c.Request(BothReplicas)
	if err != nil {
		t.Fatal(err)
	}
	// Target is 5, but these tasks only report even iterations: the first
	// even report beyond the target must escalate and park.
	ch0 := c.Report(a0, 6)
	if ch0 == nil {
		t.Fatal("task 0 should park at 6")
	}
	ch1 := c.Report(a1, 6)
	if ch1 == nil {
		t.Fatal("task 1 should park at 6")
	}
	select {
	case target := <-ready:
		if target != 6 {
			t.Fatalf("escalated target = %d, want 6", target)
		}
	default:
		t.Fatal("cut should be ready once both parked at 6")
	}
	c.Release()
	select {
	case <-ch0:
	default:
		t.Fatal("release must free parked tasks")
	}
}

// TestMixedCadenceEscalation: one frontier task beyond the target releases
// a task already parked below it.
func TestMixedCadenceEscalation(t *testing.T) {
	c := New(1, 1)
	a0 := runtime.Addr{Replica: 0, Node: 0, Task: 0}
	a1 := runtime.Addr{Replica: 1, Node: 0, Task: 0}
	c.Report(a0, 2)
	c.Report(a1, 2)
	ready, err := c.Request(BothReplicas)
	if err != nil {
		t.Fatal(err)
	}
	// Target 3. Task 0 parks exactly there.
	ch0 := c.Report(a0, 3)
	if ch0 == nil {
		t.Fatal("task 0 should park at target")
	}
	// Task 1 (sparse) reports 4: target escalates, task 0 is released.
	ch1 := c.Report(a1, 4)
	if ch1 == nil {
		t.Fatal("task 1 should park at 4")
	}
	select {
	case <-ch0:
	default:
		t.Fatal("escalation must release tasks parked below the new target")
	}
	// Task 0 catches up to 4 and parks; the cut completes at 4.
	if c.Report(a0, 4) == nil {
		t.Fatal("task 0 should re-park at 4")
	}
	select {
	case target := <-ready:
		if target != 4 {
			t.Fatalf("target = %d, want 4", target)
		}
	default:
		t.Fatal("cut should be ready")
	}
	c.Release()
}
