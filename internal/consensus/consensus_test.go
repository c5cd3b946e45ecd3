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

// awaitCut receives one Handoff per replica in scope and returns their
// common target. It fails the test on a timeout, a closed channel, a replica
// handed twice, or two different targets.
func awaitCut(t *testing.T, ready <-chan Handoff, scope Scope) int {
	t.Helper()
	deadline := time.After(10 * time.Second)
	target := -1
	var seen [2]bool
	for want := 0; want < 2; want++ {
		if !scope[want] {
			continue
		}
		select {
		case h, ok := <-ready:
			if !ok {
				t.Fatal("ready channel closed before the cut completed")
			}
			if !scope[h.Replica] || seen[h.Replica] {
				t.Fatalf("handoff %+v: replica out of scope %v or handed twice", h, scope)
			}
			if target >= 0 && h.Target != target {
				t.Fatalf("replicas handed at different targets: %d and %d", target, h.Target)
			}
			seen[h.Replica], target = true, h.Target
		case <-deadline:
			t.Fatalf("cut never completed (handed %v)", seen)
		}
	}
	return target
}

// drain returns the handoffs delivered so far without waiting.
func drain(ready <-chan Handoff) []Handoff {
	var out []Handoff
	for {
		select {
		case h, ok := <-ready:
			if !ok {
				return out
			}
			out = append(out, h)
		default:
			return out
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
		target := awaitCut(t, ready, BothReplicas)
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
				res, err := m.CheckTask(runtime.Addr{Replica: 1, Node: n, Task: tk}, d0)
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
	awaitCut(t, ready, OnlyReplica(1))
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
	awaitCut(t, ready, BothReplicas)
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
	// The cut is one past the maximum reported progress (the job finished
	// at iteration 4, so the label is 5); all tasks are done, which
	// satisfies the cut trivially — both replicas are handed at once.
	if hs := drain(ready); len(hs) != 2 || hs[0] != (Handoff{0, 5}) || hs[1] != (Handoff{1, 5}) {
		t.Fatalf("handoffs = %+v, want replicas 0 and 1 at 5 instantly", hs)
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
	if hs := drain(ready); len(hs) != 1 || hs[0].Replica != 1 {
		t.Fatalf("handoffs = %+v, want replica 1 (all done) instantly", hs)
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
		target := awaitCut(t, ready, BothReplicas)
		if target < lastTarget {
			t.Fatalf("cut target moved backwards: %d after %d", target, lastTarget)
		}
		lastTarget = target
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
		for !doneReported(c, runtime.Addr{Replica: rep, Task: 0}) {
			goruntime.Gosched()
		}
		waitProgress(t, c, runtime.Addr{Replica: rep, Task: 1}, 10)
	}
	ready, err := c.Request(BothReplicas)
	if err != nil {
		t.Fatal(err)
	}
	awaitCut(t, ready, BothReplicas)
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
	if hs := drain(ready); len(hs) != 2 || hs[0] != (Handoff{0, 6}) || hs[1] != (Handoff{1, 6}) {
		t.Fatalf("handoffs = %+v, want both replicas at the escalated target 6", hs)
	}
	c.Release()
	select {
	case <-ch0:
	default:
		t.Fatal("release must free parked tasks")
	}
}

// TestMixedCadenceEscalation: one frontier task beyond the target releases
// a task already parked below it, in a replica not yet handed over.
func TestMixedCadenceEscalation(t *testing.T) {
	c := New(1, 2)
	a00 := runtime.Addr{Replica: 0, Node: 0, Task: 0}
	a01 := runtime.Addr{Replica: 0, Node: 0, Task: 1}
	a10 := runtime.Addr{Replica: 1, Node: 0, Task: 0}
	a11 := runtime.Addr{Replica: 1, Node: 0, Task: 1}
	for _, a := range []runtime.Addr{a00, a01, a10, a11} {
		c.Report(a, 2)
	}
	ready, err := c.Request(BothReplicas)
	if err != nil {
		t.Fatal(err)
	}
	// Target 3. Task a00 parks exactly there; its replica is not complete.
	ch0 := c.Report(a00, 3)
	if ch0 == nil {
		t.Fatal("task a00 should park at target")
	}
	// Task a10 (sparse) reports 4: target escalates, a00 is released.
	if c.Report(a10, 4) == nil {
		t.Fatal("task a10 should park at 4")
	}
	select {
	case <-ch0:
	default:
		t.Fatal("escalation must release tasks parked below the new target")
	}
	// Everyone catches up to 4 and parks; the cut completes at 4.
	for _, a := range []runtime.Addr{a00, a01, a11} {
		if a != a00 && c.Report(a, 3) != nil {
			t.Fatalf("%v is a straggler at 3, must not park", a)
		}
		if c.Report(a, 4) == nil {
			t.Fatalf("%v should park at 4", a)
		}
	}
	if got := awaitCut(t, ready, BothReplicas); got != 4 {
		t.Fatalf("target = %d, want 4", got)
	}
	c.Release()
}

// TestEscalationKeepsHandedReplicaParked: a sparse reporter that overshoots
// after the other replica was handed over does not unpark that replica —
// it is being captured — until the caller hands it back; both replicas are
// then handed at the raised target, and the round is Ready only then.
func TestEscalationKeepsHandedReplicaParked(t *testing.T) {
	c := New(1, 1)
	a0 := runtime.Addr{Replica: 0, Node: 0, Task: 0}
	a1 := runtime.Addr{Replica: 1, Node: 0, Task: 0}
	c.Report(a0, 2)
	c.Report(a1, 2)
	ready, err := c.Request(BothReplicas)
	if err != nil {
		t.Fatal(err)
	}
	ch0 := c.Report(a0, 3)
	if ch0 == nil {
		t.Fatal("task 0 should park at target 3")
	}
	if hs := drain(ready); len(hs) != 1 || hs[0] != (Handoff{0, 3}) {
		t.Fatalf("handoffs = %+v, want replica 0 at 3", hs)
	}
	// Replica 0 is handed. Task 1 (sparse) reports 4: the target rises, but
	// replica 0 stays parked at 3.
	ch1 := c.Report(a1, 4)
	if ch1 == nil {
		t.Fatal("task 1 should park at 4")
	}
	select {
	case <-ch0:
		t.Fatal("escalation unparked a replica handed to capture")
	default:
	}
	if hs := drain(ready); len(hs) != 1 || hs[0] != (Handoff{1, 4}) {
		t.Fatalf("handoffs = %+v, want replica 1 at 4", hs)
	}
	if c.Phase() != Deciding {
		t.Fatalf("phase = %v with replica 0 handed below the target, want deciding", c.Phase())
	}
	// Handed back, replica 0 resumes, parks at 4 and is handed again.
	c.HandBack(0)
	select {
	case <-ch0:
	default:
		t.Fatal("HandBack must release the replica parked below the target")
	}
	if c.Report(a0, 4) == nil {
		t.Fatal("task 0 should re-park at 4")
	}
	if hs := drain(ready); len(hs) != 1 || hs[0] != (Handoff{0, 4}) {
		t.Fatalf("handoffs = %+v, want replica 0 again at 4", hs)
	}
	if c.Phase() != Ready {
		t.Fatalf("phase = %v, want ready", c.Phase())
	}
	c.Release()
	select {
	case <-ch1:
	default:
		t.Fatal("release must free parked tasks")
	}
}

// TestHandoffOncePerReplica: in a round without escalation each replica in
// scope is handed exactly once, at the target, and the channel delivers
// nothing after Release. A one-replica scope hands only that replica.
func TestHandoffOncePerReplica(t *testing.T) {
	for _, scope := range []Scope{BothReplicas, OnlyReplica(0), OnlyReplica(1)} {
		c := New(2, 1)
		var addrs []runtime.Addr
		for rep := 0; rep < 2; rep++ {
			for n := 0; n < 2; n++ {
				a := runtime.Addr{Replica: rep, Node: n}
				addrs = append(addrs, a)
				c.Report(a, 7)
			}
		}
		ready, err := c.Request(scope)
		if err != nil {
			t.Fatal(err)
		}
		var got []Handoff
		for _, a := range addrs {
			parked := c.Report(a, 8) != nil
			if parked != scope[a.Replica] {
				t.Fatalf("scope %v: %v parked=%v", scope, a, parked)
			}
			got = append(got, drain(ready)...)
		}
		var want []Handoff
		for rep := 0; rep < 2; rep++ {
			if scope[rep] {
				want = append(want, Handoff{rep, 8})
			}
		}
		if len(got) != len(want) || (len(want) > 0 && got[0] != want[0]) || (len(want) > 1 && got[1] != want[1]) {
			t.Fatalf("scope %v: handoffs %+v, want %+v", scope, got, want)
		}
		if c.Phase() != Ready {
			t.Fatalf("scope %v: phase %v, want ready", scope, c.Phase())
		}
		c.Release()
		if h, ok := <-ready; ok {
			t.Fatalf("scope %v: handoff %+v after Release", scope, h)
		}
	}
}

// doneReported reports whether the task's Done has reached the coordinator.
func doneReported(c *Coordinator, addr runtime.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done[c.index(addr)]
}

// Progress and ParkedCount are the tests' view of the coordinator: no
// program reads a single task's report or counts the parked tasks.

// Progress returns the last reported iteration of a task (-1 if none).
func (c *Coordinator) Progress(addr runtime.Addr) int {
	return int(c.last[c.index(addr)].Load())
}

// ParkedCount returns how many tasks are currently parked.
func (c *Coordinator) ParkedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ch := range c.parked {
		if ch != nil {
			n++
		}
	}
	return n
}
