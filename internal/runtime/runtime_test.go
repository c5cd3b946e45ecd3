package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"acr/internal/pup"
)

// ringProg passes a token around the ring of all tasks in its replica for a
// fixed number of laps; every task accumulates the token values it saw.
// State is fully pup-able so it can checkpoint/restart.
type ringProg struct {
	Iter  int
	Laps  int
	Sum   int64
	Fault bool // when set, corrupt Sum before finishing (SDC stand-in)
}

func (r *ringProg) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&r.Iter)
	p.Label("laps")
	p.Int(&r.Laps)
	p.Label("sum")
	p.Int64(&r.Sum)
	p.Label("fault")
	p.Bool(&r.Fault)
}

func (r *ringProg) Run(ctx *Ctx) error {
	n := ctx.NumTasks()
	me := ctx.GlobalTask()
	next := ctx.AddrOfGlobal((me + 1) % n)
	for r.Iter < r.Laps {
		// Everyone sends its id+iter to the next ring member, then
		// receives one message.
		if err := ctx.Send(next, 1, int64(me+r.Iter)); err != nil {
			return err
		}
		msg, err := ctx.Recv()
		if err != nil {
			return err
		}
		r.Sum += msg.Data.(int64)
		// Advance state BEFORE yielding: a checkpoint captured while
		// parked in Progress must resume with the next iteration.
		r.Iter++
		if err := ctx.Progress(r.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

func ringFactory(laps int) Factory {
	return func(addr Addr) Program { return &ringProg{Laps: laps} }
}

// ringSum is the expected per-task Sum after the full run: each task
// receives from its predecessor prev = (me-1+n) mod n the value prev+iter.
func ringSum(me, n, laps int) int64 {
	prev := (me - 1 + n) % n
	var sum int64
	for it := 0; it < laps; it++ {
		sum += int64(prev + it)
	}
	return sum
}

func newTestMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{NodesPerReplica: 1},
		{NodesPerReplica: 1, TasksPerNode: 1},
		{NodesPerReplica: 1, TasksPerNode: 1, Spares: -1, Factory: ringFactory(1)},
	}
	for i, cfg := range bad {
		if _, err := NewMachine(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFailureFreeRun(t *testing.T) {
	m := newTestMachine(t, Config{
		NodesPerReplica: 4,
		TasksPerNode:    2,
		Factory:         ringFactory(10),
	})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	// Both replicas computed identical, correct sums.
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < 4; n++ {
			for tk := 0; tk < 2; tk++ {
				addr := Addr{rep, n, tk}
				if !m.TaskCompleted(addr) {
					t.Fatalf("%v not completed", addr)
				}
				data, err := m.PackTask(addr)
				if err != nil {
					t.Fatal(err)
				}
				var got ringProg
				if err := pup.Unpack(data, &got); err != nil {
					t.Fatal(err)
				}
				want := ringSum(n*2+tk, 8, 10)
				if got.Sum != want {
					t.Fatalf("%v sum = %d, want %d", addr, got.Sum, want)
				}
			}
		}
	}
}

func TestReplicasIndependent(t *testing.T) {
	// A kill in replica 1 must not affect replica 0's completion.
	m := newTestMachine(t, Config{
		NodesPerReplica: 2,
		TasksPerNode:    1,
		Spares:          1,
		Factory:         ringFactory(2000),
	})
	m.Start()
	m.Kill(1, 0)
	// Replica 0 finishes; replica 1 never will. Wait for replica 0's
	// tasks by polling completion.
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := m.TaskCompleted(Addr{0, 0, 0}) && m.TaskCompleted(Addr{0, 1, 0})
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 0 did not finish despite replica 1 kill")
		}
		time.Sleep(time.Millisecond)
	}
	if m.TaskCompleted(Addr{1, 0, 0}) {
		t.Fatal("killed node's task reported completion")
	}
}

func TestKillStopsTasks(t *testing.T) {
	m := newTestMachine(t, Config{
		NodesPerReplica: 2,
		TasksPerNode:    2,
		Factory:         ringFactory(1000000), // effectively endless
	})
	m.Start()
	phys := m.Kill(0, 1)
	if phys < 0 {
		t.Fatal("bad phys id")
	}
	if m.Alive(0, 1) {
		t.Fatal("node still alive after kill")
	}
	if !m.Alive(0, 0) {
		t.Fatal("wrong node killed")
	}
	// The ring stalls; nobody completes; no app error either.
	time.Sleep(20 * time.Millisecond)
	if m.TaskCompleted(Addr{0, 0, 0}) {
		t.Fatal("task completed in stalled ring")
	}
}

func TestSpareReplacement(t *testing.T) {
	m := newTestMachine(t, Config{
		NodesPerReplica: 2,
		TasksPerNode:    1,
		Spares:          2,
		Factory:         ringFactory(5),
	})
	m.Start()
	if m.SpareCount() != 2 {
		t.Fatalf("spares = %d, want 2", m.SpareCount())
	}
	// Cannot replace a live node.
	if err := m.ReplaceWithSpare(0, 0); err == nil {
		t.Fatal("replacing a live node must fail")
	}
	m.Kill(0, 0)
	if err := m.ReplaceWithSpare(0, 0); err != nil {
		t.Fatal(err)
	}
	if m.SpareCount() != 1 {
		t.Fatalf("spares = %d, want 1", m.SpareCount())
	}
	if !m.Alive(0, 0) {
		t.Fatal("logical node should be alive on the spare")
	}
}

func TestSpareExhaustion(t *testing.T) {
	m := newTestMachine(t, Config{
		NodesPerReplica: 1,
		TasksPerNode:    1,
		Spares:          0,
		Factory:         ringFactory(1),
	})
	m.Start()
	m.Kill(0, 0)
	if err := m.ReplaceWithSpare(0, 0); err == nil {
		t.Fatal("empty spare pool must fail")
	}
}

func TestRollbackRestartsFromCheckpoint(t *testing.T) {
	// Run a gated ring, capture checkpoints at iteration 3, let it run,
	// then roll back and verify the final sums still come out right.
	gate := newParkGate(3, 8) // parks all 8 replica-0+1 tasks at iter 3
	m := newTestMachine(t, Config{
		NodesPerReplica: 2,
		TasksPerNode:    2,
		Factory:         ringFactory(10),
		Gate:            gate,
	})
	m.Start()
	gate.waitAllParked(t)

	// Capture replica 0's checkpoints while parked.
	ckpts := make([][][]byte, 2)
	for n := 0; n < 2; n++ {
		ckpts[n] = make([][]byte, 2)
		for tk := 0; tk < 2; tk++ {
			data, err := m.PackTask(Addr{0, n, tk})
			if err != nil {
				t.Fatal(err)
			}
			ckpts[n][tk] = data
			var snap ringProg
			if err := pup.Unpack(data, &snap); err != nil {
				t.Fatal(err)
			}
			// Parked after finishing iteration 3 with state already
			// advanced, so the packed cursor points at iteration 4.
			if snap.Iter != 4 {
				t.Fatalf("parked iter = %d, want 4", snap.Iter)
			}
		}
	}
	gate.releaseAll()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}

	// Roll replica 0 back to iteration 3 and rerun to completion.
	m.StopReplica(0)
	if err := m.RestartReplica(0, ckpts); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		for tk := 0; tk < 2; tk++ {
			data, err := m.PackTask(Addr{0, n, tk})
			if err != nil {
				t.Fatal(err)
			}
			var got ringProg
			if err := pup.Unpack(data, &got); err != nil {
				t.Fatal(err)
			}
			want := ringSum(n*2+tk, 4, 10)
			if got.Sum != want {
				t.Fatalf("task %d/%d sum after rollback = %d, want %d", n, tk, got.Sum, want)
			}
		}
	}
}

func TestRestartReplicaValidation(t *testing.T) {
	m := newTestMachine(t, Config{
		NodesPerReplica: 2,
		TasksPerNode:    1,
		Factory:         ringFactory(1),
	})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	m.StopReplica(0)
	if err := m.RestartReplica(0, make([][][]byte, 1)); err == nil {
		t.Fatal("wrong node count must fail")
	}
	bad := [][][]byte{{[]byte("junk")}, {nil}}
	if err := m.RestartReplica(0, bad); err == nil {
		t.Fatal("corrupt checkpoint must fail")
	}
	good := [][][]byte{{nil}, {nil}}
	if err := m.RestartReplica(0, good); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatDetection(t *testing.T) {
	const timeout = 50 * time.Millisecond
	m := newTestMachine(t, Config{
		NodesPerReplica:   2,
		TasksPerNode:      1,
		Spares:            1,
		Factory:           ringFactory(1 << 30),
		HeartbeatInterval: 2 * time.Millisecond,
		HeartbeatTimeout:  timeout,
	})
	m.Start()
	start := time.Now()
	m.Kill(1, 1)
	select {
	case f := <-m.Failures():
		if f.Replica != 1 || f.Node != 1 {
			t.Fatalf("detected wrong node: %+v", f)
		}
		if lat := time.Since(start); lat < timeout {
			t.Fatalf("detected %v after the kill, before the %v heartbeat timeout", lat, timeout)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failure not detected")
	}
	// No duplicate reports for the same physical node.
	select {
	case f := <-m.Failures():
		t.Fatalf("duplicate failure report: %+v", f)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestCrossReplicaSendRejected(t *testing.T) {
	errCh := make(chan error, 1)
	var once sync.Once
	factory := func(addr Addr) Program {
		return progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
			if ctx.Addr() == (Addr{0, 0, 0}) {
				err := ctx.Send(Addr{1, 0, 0}, 1, nil)
				once.Do(func() { errCh <- err })
			}
			return nil
		}}
	}
	m := newTestMachine(t, Config{NodesPerReplica: 1, TasksPerNode: 1, Factory: factory})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("cross-replica send should be rejected")
	}
}

func TestSendInvalidAddress(t *testing.T) {
	errCh := make(chan error, 2)
	factory := func(addr Addr) Program {
		return progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
			errCh <- ctx.Send(Addr{ctx.Addr().Replica, 99, 0}, 1, nil)
			return nil
		}}
	}
	m := newTestMachine(t, Config{NodesPerReplica: 1, TasksPerNode: 1, Factory: factory})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("send to invalid node should error")
	}
}

func TestAppErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	factory := func(addr Addr) Program {
		return progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
			if addr == (Addr{1, 0, 0}) {
				return boom
			}
			return nil
		}}
	}
	m := newTestMachine(t, Config{NodesPerReplica: 1, TasksPerNode: 1, Factory: factory})
	m.Start()
	err := m.Wait()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
}

func TestStopInterruptsWait(t *testing.T) {
	m := newTestMachine(t, Config{NodesPerReplica: 2, TasksPerNode: 1, Factory: ringFactory(1 << 30)})
	m.Start()
	go func() {
		time.Sleep(10 * time.Millisecond)
		m.Stop()
	}()
	if err := m.Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Wait = %v, want ErrStopped", err)
	}
}

func TestAddrString(t *testing.T) {
	if (Addr{1, 2, 3}).String() != "r1/n2/t3" {
		t.Fatal("Addr.String broken")
	}
}

// progFunc adapts plain functions to Program.
type progFunc struct {
	pup func(*pup.PUPer)
	run func(*Ctx) error
}

func (p progFunc) Pup(q *pup.PUPer)   { p.pup(q) }
func (p progFunc) Run(ctx *Ctx) error { return p.run(ctx) }

// parkGate parks every task when it reports iteration >= parkIter, and
// counts distinct parked tasks.
type parkGate struct {
	mu       sync.Mutex
	parkIter int
	want     int
	parked   map[Addr]bool
	release  chan struct{}
	allIn    chan struct{}
	done     bool
}

func newParkGate(iter, want int) *parkGate {
	return &parkGate{
		parkIter: iter,
		want:     want,
		parked:   make(map[Addr]bool),
		release:  make(chan struct{}),
		allIn:    make(chan struct{}),
	}
}

func (g *parkGate) Report(addr Addr, iter int) <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done || iter < g.parkIter {
		return nil
	}
	if !g.parked[addr] {
		g.parked[addr] = true
		if len(g.parked) == g.want {
			close(g.allIn)
		}
	}
	return g.release
}

func (g *parkGate) Done(Addr) {}

func (g *parkGate) waitAllParked(t *testing.T) {
	t.Helper()
	select {
	case <-g.allIn:
	case <-time.After(5 * time.Second):
		g.mu.Lock()
		n := len(g.parked)
		g.mu.Unlock()
		t.Fatalf("only %d tasks parked", n)
	}
}

func (g *parkGate) releaseAll() {
	g.mu.Lock()
	g.done = true
	g.mu.Unlock()
	close(g.release)
}

func TestGateParksAndReleases(t *testing.T) {
	gate := newParkGate(5, 4)
	m := newTestMachine(t, Config{
		NodesPerReplica: 1,
		TasksPerNode:    2,
		Factory:         ringFactory(20),
		Gate:            gate,
	})
	m.Start()
	gate.waitAllParked(t)
	// While parked, nothing completes.
	if m.TaskCompleted(Addr{0, 0, 0}) {
		t.Fatal("task completed while parked")
	}
	gate.releaseAll()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestMachineAccessors(t *testing.T) {
	m := newTestMachine(t, Config{NodesPerReplica: 3, TasksPerNode: 2, Spares: 1, Factory: ringFactory(1)})
	if m.SpareCount() != 1 {
		t.Fatal("accessors broken")
	}
}

func TestCtxAccessors(t *testing.T) {
	type probe struct {
		tasksPer, numTasks, global int
		roundTrip                  Addr
	}
	ch := make(chan probe, 1)
	factory := func(addr Addr) Program {
		return progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
			if addr == (Addr{0, 1, 1}) {
				ch <- probe{ctx.TasksPerNode(), ctx.NumTasks(), ctx.GlobalTask(), ctx.AddrOfGlobal(ctx.GlobalTask())}
			}
			return nil
		}}
	}
	m := newTestMachine(t, Config{NodesPerReplica: 2, TasksPerNode: 2, Factory: factory})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	p := <-ch
	if p.tasksPer != 2 || p.numTasks != 4 || p.global != 3 || p.roundTrip != (Addr{0, 1, 1}) {
		t.Fatalf("ctx accessors: %+v", p)
	}
}

func TestCorruptTask(t *testing.T) {
	m := newTestMachine(t, Config{NodesPerReplica: 1, TasksPerNode: 1, Factory: ringFactory(3)})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	m.CorruptTask(Addr{0, 0, 0}, func(p pup.Pupable) {
		p.(*ringProg).Sum ^= 1
	})
	data, err := m.PackTask(Addr{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the healthy replica 1 twin: must mismatch.
	res, err := m.CheckTask(Addr{1, 0, 0}, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Match {
		t.Fatal("corruption not visible to checker")
	}
}

func TestReplicaTwinsIdentical(t *testing.T) {
	// The core SDC-detection premise: buddies' checkpoints are
	// byte-identical in a fault-free run.
	m := newTestMachine(t, Config{NodesPerReplica: 2, TasksPerNode: 2, Factory: ringFactory(7)})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		for tk := 0; tk < 2; tk++ {
			c0, err := m.PackTask(Addr{0, n, tk})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.CheckTask(Addr{1, n, tk}, c0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Match {
				t.Fatalf("replica twins diverged at n%d/t%d: %v", n, tk, res.Mismatches)
			}
		}
	}
}

// TaskCompleted reports whether the task's current incarnation ran to
// completion. Only tests ask.
func (m *Machine) TaskCompleted(addr Addr) bool {
	m.mu.RLock()
	s := m.slots[addr.Replica][addr.Node][addr.Task]
	m.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}
