package core

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/ckptstore"
	"acr/internal/consensus"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// gatedProg is a write-tracked task without messages: each iteration adds
// one increment to one pad element and marks it, so after the first capture
// every capture splices, and with the controller's pooled store patches in
// place. Every task waits at the top of each of its gate's stop iterations
// until the test opens that stop for its replica, which lets a test place
// each round's cut at a chosen iteration and hold one replica short of it.
type gatedProg struct {
	pup.WriteSet
	Iter, Iters int
	Pad         []float64

	rep, self int       // replica and dense task index; derived
	gate      *stopGate // derived
}

// stopGate holds a replica's tasks at fixed iterations: held counts the
// arrivals at each stop, and a stop holds a replica until the test opens it.
// A stop opened once stays open, so a rerun after a rollback passes it.
type stopGate struct {
	stops []int
	held  [2][]atomic.Int32
	open  [2][]chan struct{}
}

func newStopGate(stops ...int) *stopGate {
	g := &stopGate{stops: stops}
	for rep := range g.open {
		g.held[rep] = make([]atomic.Int32, len(stops))
		for range stops {
			g.open[rep] = append(g.open[rep], make(chan struct{}))
		}
	}
	return g
}

func (g *stopGate) wait(rep, iter int) {
	for k, s := range g.stops {
		if s == iter {
			g.held[rep][k].Add(1)
			<-g.open[rep][k]
		}
	}
}

// release opens stop k for the given replicas.
func (g *stopGate) release(k int, reps ...int) {
	for _, rep := range reps {
		close(g.open[rep][k])
	}
}

const gatedPad = 512

func (g *gatedProg) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&g.Iter)
	p.Label("iters")
	p.Int(&g.Iters)
	p.Label("pad")
	p.Float64s(&g.Pad)
}

// gatedInc is what task self adds at iteration it: distinct per (task,
// iteration), cumulative, so a lost or replayed increment stays visible.
func gatedInc(self, it int) float64 { return 1 + 1e-3*float64(self) + 1e-6*float64(it) }

func (g *gatedProg) Run(ctx *runtime.Ctx) error {
	spans := pup.FieldSpans(g)
	iterSpan, padSpan := spans["iter"], spans["pad"]
	for g.Iter < g.Iters {
		g.gate.wait(g.rep, g.Iter)
		w := g.Iter % gatedPad
		g.Pad[w] += gatedInc(g.self, g.Iter)
		g.MarkSpan(padSpan.Slice(w, w+1, 8))
		g.Iter++
		g.MarkSpan(iterSpan)
		if err := ctx.Progress(g.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// gatedGolden is task self's fault-free final pad.
func gatedGolden(self, iters int) []float64 {
	pad := make([]float64, gatedPad)
	for it := 0; it < iters; it++ {
		pad[it%gatedPad] += gatedInc(self, it)
	}
	return pad
}

// waitFor polls the job's counters until cond holds or the job ends; it
// reports whether cond held.
func waitFor(ctrl *Controller, done <-chan struct{}, cond func(Progress) bool) bool {
	for !cond(ctrl.Progress()) {
		select {
		case <-done:
			return cond(ctrl.Progress())
		default:
			stdruntime.Gosched()
		}
	}
	return true
}

// TestLaggardKilledAfterLeaderCaptured decouples one round's cut on
// purpose: replica 1 is held short of it, so replica 0 parks first and is
// captured alone, and right after its captures land a node of replica 1 is
// killed. The round aborts, strong recovery rolls back only replica 1, and
// replica 0 runs on having been captured for a round that never commits.
// The next round — which also carries an SDC injected into replica 0, so
// it rolls both replicas back to the committed epoch — must find that
// epoch's stored checkpoints untouched: replica 0's capture ladder was
// reset by the abort, so its capture did not patch the committed buffer in
// place. The job ends bit-identical to the fault-free run. Each of the
// three rounds is cut at an iteration the tasks wait at until the round is
// open, so the job cannot run past a planned round however the test is
// scheduled. It runs inline (auto widths on a small state) and with every
// stage three wide.
func TestLaggardKilledAfterLeaderCaptured(t *testing.T) {
	defer testStageWidth.Store(0)
	defer testReplicaCaptured.Store(nil)
	for _, width := range []int{0, 3} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			testStageWidth.Store(int32(width))
			laggardKill(t)
		})
	}
}

func laggardKill(t *testing.T) {
	const nodes, tasks, iters = 2, 2, 200000
	// One stop per round: the first commit, the held round, the SDC round.
	const first, held, sdc = 0, 1, 2
	gate := newStopGate(100, 200, 300)
	cfg := Config{
		NodesPerReplica: nodes,
		TasksPerNode:    tasks,
		Spares:          2,
		Factory: func(addr runtime.Addr) runtime.Program {
			return &gatedProg{Iters: iters, Pad: make([]float64, gatedPad),
				rep: addr.Replica, self: addr.Node*tasks + addr.Task, gate: gate}
		},
		Scheme:            Strong,
		Comparison:        FullCompare,
		HeartbeatInterval: time.Millisecond,
		HeartbeatTimeout:  8 * time.Millisecond,
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.pool == nil {
		t.Fatal("the controller-owned store must recycle through a pool: patch-in-place capture is off without one")
	}

	// The seam's stages: 1 = the held round (record the committed epoch's
	// roots, kill the laggard), 2 = the round after the abort (re-check
	// them once replica 0 is captured again).
	var (
		mu        sync.Mutex
		stage     int
		committed uint64
		roots     = map[ckptstore.Key]uint64{}
		problems  []string
	)
	resum := func(k ckptstore.Key) (got, want uint64, err error) {
		ck, err := ctrl.Store().Get(k)
		if err != nil {
			return 0, 0, err
		}
		return ckptstore.Capture(append([]byte(nil), ck.Bytes()...), ck.ChunkSize, 1).Root, roots[k], nil
	}
	seam := func(rep int) {
		mu.Lock()
		defer mu.Unlock()
		if rep != 0 {
			return
		}
		switch stage {
		case 1:
			committed = ctrl.Progress().CommittedEpoch
			for n := 0; n < nodes; n++ {
				for tk := 0; tk < tasks; tk++ {
					k := ctrl.key(0, n, tk, committed)
					ck, err := ctrl.Store().Get(k)
					if err != nil {
						problems = append(problems, fmt.Sprintf("committed %v: %v", k, err))
						continue
					}
					roots[k] = ck.Root
				}
			}
			ctrl.KillNode(1, 0)
			// Replica 1 runs free from here: a task held at a stop cannot be
			// interrupted, and the rollback stops the replica.
			gate.release(held, 1)
			gate.release(sdc, 1)
			stage = 2
		case 2:
			for k := range roots {
				if got, want, err := resum(k); err != nil || got != want {
					problems = append(problems, fmt.Sprintf("committed %v re-sums to %x, recorded %x (%v): patched in place", k, got, want, err))
				}
			}
			stage = 3
			if len(problems) > 0 {
				go ctrl.Machine().Stop() // the rollback would restore the patched bytes forever
			}
		}
	}
	testReplicaCaptured.Store(&seam)

	type result struct {
		stats Stats
		err   error
	}
	out := make(chan result, 1)
	done := make(chan struct{})
	go func() {
		stats, err := ctrl.Run()
		out <- result{stats, err}
		close(done)
	}()
	// hold waits until every task of the given replicas waits at stop k.
	hold := func(k int, reps ...int) bool {
		return waitFor(ctrl, done, func(Progress) bool {
			for _, rep := range reps {
				if gate.held[rep][k].Load() < nodes*tasks {
					return false
				}
			}
			return true
		})
	}
	// request asks for a round and waits until it is open. Its cut is one
	// past the furthest progress report: the stop itself while every task
	// waits there.
	request := func() bool {
		ctrl.PredictFailure()
		return waitFor(ctrl, done, func(Progress) bool { return ctrl.coord.Phase() != consensus.Idle })
	}
	steps := func() bool {
		if !hold(first, 0, 1) || !request() {
			return false
		}
		gate.release(first, 0, 1)
		if !waitFor(ctrl, done, func(p Progress) bool { return p.Checkpoints >= 1 }) {
			return false
		}
		mu.Lock()
		stage = 1
		mu.Unlock()
		// Replica 1 stays at the stop, short of the cut, until the seam
		// has killed one of its nodes.
		if !hold(held, 0, 1) || !request() {
			return false
		}
		gate.release(held, 0)
		if !waitFor(ctrl, done, func(p Progress) bool { return p.HardErrors >= 1 && p.Rollbacks >= 1 }) {
			return false
		}
		// Replica 0 waiting at the last stop keeps the job from ending
		// before the SDC round.
		ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 0, Node: 1, Task: 0})
		if !hold(sdc, 0) || !request() {
			return false
		}
		gate.release(sdc, 0)
		return waitFor(ctrl, done, func(p Progress) bool { return p.SDCDetected >= 1 })
	}()
	res := <-out
	mu.Lock()
	for _, p := range problems {
		t.Error(p)
	}
	reached := stage
	mu.Unlock()
	if res.err != nil {
		t.Fatalf("run: %v", res.err)
	}
	if !steps || reached != 3 {
		t.Fatalf("job ended before the planned rounds ran (seam stage %d)", reached)
	}
	st := res.stats
	if st.AbortedRounds != 1 || st.HardErrors != 1 || st.SDCDetected != 1 {
		t.Fatalf("aborted rounds %d, hard errors %d, SDCs %d; want 1, 1, 1", st.AbortedRounds, st.HardErrors, st.SDCDetected)
	}
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < nodes; n++ {
			for tk := 0; tk < tasks; tk++ {
				addr := runtime.Addr{Replica: rep, Node: n, Task: tk}
				data, err := ctrl.Machine().PackTask(addr)
				if err != nil {
					t.Fatal(err)
				}
				var got gatedProg
				if err := pup.Unpack(data, &got); err != nil {
					t.Fatal(err)
				}
				want := gatedGolden(n*tasks+tk, iters)
				if got.Iter != iters {
					t.Fatalf("%v stopped at iteration %d, want %d", addr, got.Iter, iters)
				}
				for i := range want {
					if math.Float64bits(got.Pad[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v pad[%d] = %v, want %v (not bit-identical)", addr, i, got.Pad[i], want[i])
					}
				}
			}
		}
	}
}

// TestOvertakenHandoffRestartsTheBody drives the round body as awaitReady
// does, on an idle machine over a link: replica 0 is handed at iteration 5
// and captured at once, its digests shipped; replica 1 then arrives at 7 —
// an escalation overtook replica 0's handoff. The body must abandon what it
// captured, hand replica 0 back and start over under a fresh epoch with
// replica 1 as the sender, and once replica 0 is handed again at 7 the
// round completes clean on that epoch, inline and three wide.
func TestOvertakenHandoffRestartsTheBody(t *testing.T) {
	defer testStageWidth.Store(0)
	for _, width := range []int{0, 3} {
		testStageWidth.Store(int32(width))
		ctrl, err := New(linkConfig(ChecksumCompare, nil))
		if err != nil {
			t.Fatal(err)
		}
		var b *roundBody
		b = ctrl.openRound(0, consensus.BothReplicas, func(n, task int) error { return ctrl.shipTask(b.epoch, n, task) }, nil)
		if b.take(consensus.Handoff{Replica: 0, Target: 5}) || !b.started[0] || b.first != 0 {
			t.Fatalf("width %d: replica 0 alone must start, not complete, the cut", width)
		}
		burnt := b.epoch
		if b.take(consensus.Handoff{Replica: 1, Target: 7}) {
			t.Fatalf("width %d: cut complete with replica 0 overtaken", width)
		}
		if b.epoch == burnt || b.started[0] || !b.started[1] || ctrl.sender != 1 {
			t.Fatalf("width %d: body not restarted: epoch %d (burnt %d), started %v, sender %d", width, b.epoch, burnt, b.started, ctrl.sender)
		}
		if !b.take(consensus.Handoff{Replica: 0, Target: 7}) {
			t.Fatalf("width %d: cut incomplete with both replicas handed at 7", width)
		}
		if mismatch, _, err := b.finish(); mismatch != "" || err != nil {
			t.Fatalf("width %d: verdict %q, %v; want clean", width, mismatch, err)
		}
		for rep := 0; rep < 2; rep++ {
			if _, err := ctrl.store.Get(ctrl.key(rep, 1, 1, b.epoch)); err != nil {
				t.Fatalf("width %d: replica %d not captured at the fresh epoch: %v", width, rep, err)
			}
		}
	}
}
