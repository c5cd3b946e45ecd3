package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/pup"
	"acr/internal/runtime"
	"acr/internal/trace"
)

// diffProg is a deterministic 1D three-point diffusion kernel distributed
// over all tasks of a replica: task g owns Cells cells of a global array,
// exchanges single-cell halos with its neighbours every iteration, and
// relaxes u[i] = (u[i-1]+u[i]+u[i+1])/3 with zero boundaries. Its final
// state is bit-reproducible, so tests verify recovered runs against a
// serial reference.
type diffProg struct {
	Iter  int
	Iters int
	U     []float64
}

const diffCells = 8

type halo struct {
	Iter int
	Side int // 0 = sender's left edge, 1 = sender's right edge
	Val  float64
}

func (d *diffProg) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&d.Iter)
	p.Label("iters")
	p.Int(&d.Iters)
	p.Label("u")
	p.Float64s(&d.U)
}

func initialCell(globalIdx int) float64 {
	return math.Sin(float64(globalIdx)*0.7) + 2
}

func (d *diffProg) Run(ctx *runtime.Ctx) error {
	g := ctx.GlobalTask()
	n := ctx.NumTasks()
	if d.U == nil {
		d.U = make([]float64, diffCells)
		for i := range d.U {
			d.U[i] = initialCell(g*diffCells + i)
		}
	}
	var pending []runtime.Message
	recvHalo := func(iter int) (left, right float64, err error) {
		needLeft := g > 0
		needRight := g < n-1
		take := func(m runtime.Message) bool {
			h := m.Data.(halo)
			if h.Iter != iter {
				return false
			}
			if needLeft && h.Side == 1 && m.From == ctx.AddrOfGlobal(g-1) {
				left = h.Val
				needLeft = false
				return true
			}
			if needRight && h.Side == 0 && m.From == ctx.AddrOfGlobal(g+1) {
				right = h.Val
				needRight = false
				return true
			}
			return false
		}
		for i := 0; i < len(pending); {
			if take(pending[i]) {
				pending = append(pending[:i], pending[i+1:]...)
			} else {
				i++
			}
		}
		for needLeft || needRight {
			m, err := ctx.Recv()
			if err != nil {
				return 0, 0, err
			}
			if !take(m) {
				pending = append(pending, m)
			}
		}
		return left, right, nil
	}

	for d.Iter < d.Iters {
		it := d.Iter
		if g > 0 {
			if err := ctx.Send(ctx.AddrOfGlobal(g-1), 0, halo{Iter: it, Side: 0, Val: d.U[0]}); err != nil {
				return err
			}
		}
		if g < n-1 {
			if err := ctx.Send(ctx.AddrOfGlobal(g+1), 0, halo{Iter: it, Side: 1, Val: d.U[len(d.U)-1]}); err != nil {
				return err
			}
		}
		left, right, err := recvHalo(it)
		if err != nil {
			return err
		}
		next := make([]float64, len(d.U))
		for i := range d.U {
			lo := left
			if i > 0 {
				lo = d.U[i-1]
			} else if g == 0 {
				lo = 0
			}
			hi := right
			if i < len(d.U)-1 {
				hi = d.U[i+1]
			} else if g == n-1 {
				hi = 0
			}
			next[i] = (lo + d.U[i] + hi) / 3
		}
		d.U = next
		d.Iter++
		if err := ctx.Progress(d.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// diffReference computes the expected global array after iters sweeps.
func diffReference(tasks, iters int) []float64 {
	n := tasks * diffCells
	u := make([]float64, n)
	for i := range u {
		u[i] = initialCell(i)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for i := range u {
			lo, hi := 0.0, 0.0
			if i > 0 {
				lo = u[i-1]
			}
			if i < n-1 {
				hi = u[i+1]
			}
			next[i] = (lo + u[i] + hi) / 3
		}
		u = next
	}
	return u
}

func diffFactory(iters int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program { return &diffProg{Iters: iters} }
}

// verifyFinalState checks every task of both replicas against the serial
// reference.
func verifyFinalState(t *testing.T, ctrl *Controller, nodes, tasks, iters int) {
	t.Helper()
	ref := diffReference(nodes*tasks, iters)
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < nodes; n++ {
			for tk := 0; tk < tasks; tk++ {
				addr := runtime.Addr{Replica: rep, Node: n, Task: tk}
				data, err := ctrl.Machine().PackTask(addr)
				if err != nil {
					t.Fatal(err)
				}
				var got diffProg
				if err := pup.Unpack(data, &got); err != nil {
					t.Fatal(err)
				}
				if got.Iter != iters {
					t.Fatalf("%v stopped at iteration %d, want %d", addr, got.Iter, iters)
				}
				g := n*tasks + tk
				for i, v := range got.U {
					want := ref[g*diffCells+i]
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%v cell %d = %v, want %v (not bit-identical)", addr, i, v, want)
					}
				}
			}
		}
	}
}

func baseConfig(nodes, tasks, iters int) Config {
	return Config{
		NodesPerReplica:    nodes,
		TasksPerNode:       tasks,
		Spares:             2,
		Factory:            diffFactory(iters),
		Scheme:             Strong,
		Comparison:         FullCompare,
		CheckpointInterval: 5 * time.Millisecond,
		HeartbeatInterval:  time.Millisecond,
		HeartbeatTimeout:   8 * time.Millisecond,
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{NodesPerReplica: 1, TasksPerNode: 1},
		{NodesPerReplica: 1, TasksPerNode: 1, Factory: diffFactory(1), Scheme: Scheme(9)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFailureFreeRunWithCheckpoints(t *testing.T) {
	cfg := baseConfig(2, 2, 4000)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints == 0 {
		t.Error("expected at least one committed checkpoint")
	}
	if stats.SDCDetected != 0 || stats.HardErrors != 0 || stats.Rollbacks != 0 {
		t.Errorf("failure-free run reported failures: %+v", stats)
	}
	verifyFinalState(t, ctrl, 2, 2, 4000)
}

func TestSDCDetectionAndRecovery(t *testing.T) {
	for _, cmp := range []Comparison{FullCompare, ChecksumCompare} {
		cmp := cmp
		t.Run(cmp.String(), func(t *testing.T) {
			cfg := baseConfig(2, 2, 4000)
			cfg.Comparison = cmp
			var ctrl *Controller
			pace(&cfg, &ctrl, 500, nil)
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 0, Node: 1, Task: 0})
			stats, err := ctrl.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.SDCDetected == 0 {
				t.Fatal("injected SDC was not detected")
			}
			if stats.Rollbacks < 2 {
				t.Fatalf("SDC must roll back both replicas, rollbacks = %d", stats.Rollbacks)
			}
			verifyFinalState(t, ctrl, 2, 2, 4000)
		})
	}
}

func TestHardErrorRecoveryAllSchemes(t *testing.T) {
	for _, scheme := range []Scheme{Strong, Medium, Weak} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := baseConfig(2, 2, 8000)
			cfg.Scheme = scheme
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tl := &trace.Timeline{}
			ctrl.cfg.Timeline = tl
			go func() {
				time.Sleep(12 * time.Millisecond)
				ctrl.KillNode(1, 0)
			}()
			stats, err := ctrl.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.HardErrors != 1 {
				t.Fatalf("hard errors = %d, want 1", stats.HardErrors)
			}
			if stats.SparesUsed != 1 {
				t.Fatalf("spares used = %d, want 1", stats.SparesUsed)
			}
			if stats.Rollbacks == 0 {
				t.Fatal("recovery must restart the crashed replica")
			}
			if len(tl.OfKind(trace.Failure)) == 0 || len(tl.OfKind(trace.Restart)) == 0 {
				t.Error("timeline missing failure/restart events")
			}
			verifyFinalState(t, ctrl, 2, 2, 8000)
		})
	}
}

func TestHardErrorWithoutSparesIsFatal(t *testing.T) {
	cfg := baseConfig(2, 1, 100000)
	cfg.Spares = 0
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		ctrl.KillNode(0, 0)
	}()
	_, err = ctrl.Run()
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("expected ErrUnrecoverable, got %v", err)
	}
	if !errors.Is(err, runtime.ErrSpareExhausted) {
		t.Fatalf("cause should be spare exhaustion, got %v", err)
	}
}

func TestHardErrorOnlyMode(t *testing.T) {
	// Figure 5a: no periodic checkpointing; a hard error triggers an
	// immediate recovery checkpoint by the healthy replica.
	cfg := baseConfig(2, 1, 20000)
	cfg.Scheme = Medium
	cfg.CheckpointInterval = 0
	// The kill lands a quarter of the way in however fast the tasks run,
	// from its own goroutine: a task inside a hook cannot be interrupted.
	var ctrl *Controller
	var killed sync.Once
	cfg.Chaos = point.HookFunc(func(id point.ID, info *point.Info) {
		if id == point.RuntimeProgress && info.Iter >= 5000 {
			killed.Do(func() { go ctrl.KillNode(0, 1) })
		}
	})
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.HardErrors != 1 {
		t.Fatalf("hard errors = %d, want 1", stats.HardErrors)
	}
	if stats.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want exactly the recovery checkpoint", stats.Checkpoints)
	}
	verifyFinalState(t, ctrl, 2, 1, 20000)
}

// TestWeakWithoutTimerRecoversAtOnce: the weak scheme waits for the next
// periodic checkpoint to recover a crashed replica, and with no checkpoint
// timer there is none. The failure is recovered at once instead, through
// the recovery checkpoint, and the job ends with the bare run's state.
func TestWeakWithoutTimerRecoversAtOnce(t *testing.T) {
	cfg := baseConfig(2, 1, 20000)
	cfg.Scheme = Weak
	cfg.CheckpointInterval = 0
	var ctrl *Controller
	var killed sync.Once
	cfg.Chaos = point.HookFunc(func(id point.ID, info *point.Info) {
		if id == point.RuntimeProgress && info.Iter >= 5000 {
			killed.Do(func() { go ctrl.KillNode(0, 1) }) // a task inside a hook cannot be interrupted
		}
	})
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		stats Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := ctrl.Run()
		done <- result{stats, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("the job never ended: the weak recovery waits for a checkpoint no timer starts")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.stats.HardErrors != 1 {
		t.Fatalf("hard errors = %d, want 1", res.stats.HardErrors)
	}
	if res.stats.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want exactly the recovery checkpoint", res.stats.Checkpoints)
	}
	verifyFinalState(t, ctrl, 2, 1, 20000)
}

// TestMultipleFailures: one hard error in each replica, each landing at a
// commit — r0/n0 at the first, r1/n1 at the second — and the strong scheme
// rolls each crashed replica back. The hook asks for both rounds and holds
// tasks in their progress reports until the round they wait for has opened,
// so both faults hit a running job however fast it iterates: the first
// progress report asks for round 1 and every task waits for it; after the
// first kill replica 1 waits for round 2, which replica 0's restart asks
// for. Nothing of a replica about to be stopped is ever held.
func TestMultipleFailures(t *testing.T) {
	cfg := baseConfig(2, 2, 12000)
	cfg.Scheme = Strong
	cfg.Spares = 3
	cfg.CheckpointInterval = 0
	var ctrl *Controller
	var mu sync.Mutex
	opened := sync.NewCond(&mu)
	rounds, commits, asked := 0, 0, false
	holdUntil := [2]int{1, 1} // per replica: rounds that must open before its tasks go on
	cfg.Chaos = point.HookFunc(func(id point.ID, info *point.Info) {
		switch id {
		case point.RuntimeProgress:
			mu.Lock()
			first := !asked
			asked = true
			mu.Unlock()
			if first {
				ctrl.PredictFailure()
			}
			mu.Lock()
			for rounds < holdUntil[info.Replica] {
				opened.Wait()
			}
			mu.Unlock()
		case point.CorePreConsensus:
			mu.Lock()
			rounds++
			mu.Unlock()
			opened.Broadcast()
		case point.CoreCommit:
			mu.Lock()
			commits++
			n := commits
			if n == 1 {
				holdUntil[1] = 2
			}
			mu.Unlock()
			switch n {
			case 1:
				ctrl.KillNode(0, 0)
			case 2:
				ctrl.KillNode(1, 1)
			}
		case point.CoreRestart:
			mu.Lock()
			n := commits
			mu.Unlock()
			if info.Replica == 0 && n == 1 {
				ctrl.PredictFailure()
			}
		}
	})
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.HardErrors != 2 {
		t.Fatalf("hard errors = %d, want 2", stats.HardErrors)
	}
	verifyFinalState(t, ctrl, 2, 2, 12000)
}

func TestSDCPlusHardError(t *testing.T) {
	cfg := baseConfig(2, 2, 10000)
	cfg.Scheme = Medium
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 1, Node: 0, Task: 1})
	go func() {
		time.Sleep(20 * time.Millisecond)
		ctrl.KillNode(0, 1)
	}()
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SDCDetected == 0 {
		t.Fatal("SDC missed")
	}
	if stats.HardErrors != 1 {
		t.Fatalf("hard errors = %d, want 1", stats.HardErrors)
	}
	verifyFinalState(t, ctrl, 2, 2, 10000)
}

func TestAdaptiveIntervalReactsToFailures(t *testing.T) {
	cfg := baseConfig(2, 1, 60000)
	cfg.Scheme = Medium
	cfg.Adaptive = true
	cfg.Spares = 4
	cfg.CheckpointInterval = 8 * time.Millisecond // adaptive clamp [1 ms, 64 ms]
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 3; i++ {
			time.Sleep(12 * time.Millisecond)
			ctrl.KillNode(i%2, i%2)
		}
	}()
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.HardErrors < 2 {
		t.Fatalf("hard errors = %d, want >= 2", stats.HardErrors)
	}
	if stats.FinalInterval == cfg.CheckpointInterval {
		t.Error("adaptive mode never changed the interval")
	}
	verifyFinalState(t, ctrl, 2, 1, 60000)
}

func TestSchemeAndComparisonStrings(t *testing.T) {
	if Strong.String() != "strong" || Medium.String() != "medium" || Weak.String() != "weak" {
		t.Fatal("Scheme.String broken")
	}
	if FullCompare.String() != "full" || ChecksumCompare.String() != "checksum" {
		t.Fatal("Comparison.String broken")
	}
	if Scheme(9).String() == "" || Comparison(9).String() == "" {
		t.Fatal("unknown values should format")
	}
}

func TestStatsElapsedPositive(t *testing.T) {
	ctrl, err := New(baseConfig(1, 1, 50))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}
