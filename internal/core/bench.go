package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"acr/internal/ckptstore"
	"acr/internal/consensus"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// This file is the live benchmark harness behind cmd/acrbench: it measures
// the checkpoint commit path — capture, buddy comparison, and the full
// round — on a real Machine + Controller, in two variants per machine
// shape: a frozen serial yardstick (the pre-fast-path behavior, which
// exists only in this file) and the controller's round body (size-hint
// single-pass packing, pooled buffers, dirty splice, stage widths from
// stageWidths). The harness lives in package core so it can drive
// checkpointRound/runRound directly, without the event loop's timers
// adding noise.

// benchParticle is one MD-style particle: six doubles piped field by
// field. The per-object Pup traversal is deliberate — it is the shape
// (apps.MD, any struct-of-structs state) where the Sizing pass costs as
// much as the Packing pass, which is exactly what the size-hint fast path
// eliminates. A flat []float64 state would make Sizing O(1) and hide the
// effect.
type benchParticle struct {
	X, Y, Z, VX, VY, VZ float64
}

func (a *benchParticle) Pup(p *pup.PUPer) {
	p.Float64(&a.X)
	p.Float64(&a.Y)
	p.Float64(&a.Z)
	p.Float64(&a.VX)
	p.Float64(&a.VY)
	p.Float64(&a.VZ)
}

// benchProgram advances a deterministic function of (initial state,
// iteration count), so the two replicas' tasks are byte-identical whenever
// the consensus cut parks them at the same iteration — which it always
// does. It never completes on its own; the harness stops the machine.
type benchProgram struct {
	iter  int64
	atoms []benchParticle
}

func (b *benchProgram) Pup(p *pup.PUPer) {
	p.Int64(&b.iter)
	n := len(b.atoms)
	p.Int(&n)
	if p.Mode() == pup.Unpacking && len(b.atoms) != n {
		b.atoms = make([]benchParticle, n)
	}
	for i := range b.atoms {
		p.Object(&b.atoms[i])
	}
}

func (b *benchProgram) step() {
	i := int(b.iter) % len(b.atoms)
	b.atoms[i].X += 0.25
	b.atoms[i].VX = -b.atoms[i].VX
	b.iter++
}

// Run circulates tokens around a task ring, one hop per iteration. The
// communication is not decoration: it keeps the replica's tasks in lock
// step, like a halo-exchanging HPC app. A compute-only loop would let the
// scheduler run one task thousands of iterations ahead, and every
// checkpoint round would start with a long catch-up march to the consensus
// target — measuring scheduler skew, not the commit path.
func (b *benchProgram) Run(ctx *runtime.Ctx) error {
	next := ctx.AddrOfGlobal((ctx.GlobalTask() + 1) % ctx.NumTasks())
	for {
		// Contract: state advances before Progress, so a checkpoint taken
		// while parked resumes at the next iteration.
		b.step()
		// nil payload: a boxed value would allocate per hop and charge
		// task-side noise to whichever benchmark op is running.
		if err := ctx.Send(next, 0, nil); err != nil {
			return err
		}
		if _, err := ctx.Recv(); err != nil {
			return err
		}
		if err := ctx.Progress(int(b.iter)); err != nil {
			return err
		}
	}
}

// benchFactory seeds particles deterministically from (node, task) only —
// never the replica — so buddy tasks start identical.
func benchFactory(particles int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		atoms := make([]benchParticle, particles)
		for i := range atoms {
			v := float64(addr.Node*1000+addr.Task*100+i) * 0.001
			atoms[i] = benchParticle{X: v, Y: v + 1, Z: v + 2, VX: -v, VY: v * 2, VZ: 1 - v}
		}
		return &benchProgram{atoms: atoms}
	}
}

// BenchSpec is one benchmarked machine shape.
type BenchSpec struct {
	Name      string `json:"name"`
	Nodes     int    `json:"nodes"`     // nodes per replica
	Tasks     int    `json:"tasks"`     // tasks per node
	Particles int    `json:"particles"` // per task; state ≈ 48 B/particle
	// Dirty > 0 selects the dirty-ratio axis: a flat-vector program whose
	// tasks rewrite only the first Dirty percent of their state between
	// rounds. Particles then counts float64 elements (8 B each), the
	// "serial" leg is the untracked program (blind tracker, full re-pack
	// every round) and the "fast" leg the write-tracked one (dirty-chunk
	// splice), and only the round op is measured — capture in isolation is
	// degenerate on an unstarted machine (no writes, everything clean).
	Dirty int `json:"dirty,omitempty"`
	// LinkLatencyMs > 0 (or LinkLossPct > 0) selects the pipeline axis:
	// live rounds ship every task's checkpoint through a hardened
	// exchange link with this one-way latency and loss percentage
	// (ExchangeConfig.ShipCheckpoints). Both legs run the same program
	// through the same kind of link — the "serial" leg as the yardstick
	// (capture all, ship every task one after the other, compare all) and
	// the "fast" leg as the controller's round with its exchange stage 32
	// wide — so the measured difference is mostly link flight time
	// overlapped. Combines with Dirty (delta-aware shipping on both legs).
	// Only the round op is measured.
	LinkLatencyMs int     `json:"link_latency_ms,omitempty"`
	LinkLossPct   float64 `json:"link_loss_pct,omitempty"`
	// RemoteLatencyMs > 0 selects the remote-flush axis: every committed
	// round additionally uploads its epoch to a simulated object store
	// with this per-op latency (no fault injection — the axis isolates
	// latency absorption, not resilience). The "serial" leg is the
	// yardstick uploading inline on the commit path, paying the store's
	// latency per round; the "fast" leg is the controller's background
	// remote writer, which overlaps uploads with computation. Only the
	// round op is measured.
	RemoteLatencyMs int `json:"remote_latency_ms,omitempty"`
}

// linked reports whether the spec runs on the pipeline (lossy-link) axis.
func (s BenchSpec) linked() bool { return s.LinkLatencyMs > 0 || s.LinkLossPct > 0 }

// yardstickLeg reports whether the spec's "serial" leg is the yardstick. On
// the pure dirty axis it is not: there both legs run the controller's round
// and the serial leg only swaps in the untracked program.
func (s BenchSpec) yardstickLeg() bool { return s.Dirty == 0 || s.linked() }

// DefaultBenchSpecs returns the benchmarked shapes. Quick mode keeps the
// subset CI smoke-runs; names are stable, so a quick run can be checked
// against a full baseline.
func DefaultBenchSpecs(quick bool) []BenchSpec {
	specs := []BenchSpec{
		{Name: "2x2nodes-4tasks-96KB", Nodes: 2, Tasks: 2, Particles: 2048},
		{Name: "2x1node-1task-16MB-dirty10", Nodes: 1, Tasks: 1, Particles: 2097152, Dirty: 10},
		// The pipeline case: 8 tasks of 256KB each rewriting a quarter of
		// their state per round, shipped over a 2ms / 1%-loss link. The
		// barrier leg pays the tasks' round trips one after the other; the
		// pipelined leg overlaps them, and the dirty tracking keeps the
		// steady-state frame count low enough that capture and compare
		// meaningfully overlap the flight time too.
		{Name: "2x4nodes-8tasks-2MB-link2ms-dirty25", Nodes: 4, Tasks: 2, Particles: 32768, Dirty: 25, LinkLatencyMs: 2, LinkLossPct: 1},
		// The remote-flush case: every round uploads 4 task checkpoints to
		// a 2ms-latency object store. The sync leg pays ~8ms of upload per
		// round inline; the async leg hides it behind the next rounds.
		{Name: "2x2nodes-4tasks-96KB-remote2ms", Nodes: 2, Tasks: 2, Particles: 2048, RemoteLatencyMs: 2},
	}
	if !quick {
		specs = append(specs,
			BenchSpec{Name: "2x4nodes-16tasks-192KB", Nodes: 4, Tasks: 4, Particles: 4096},
			BenchSpec{Name: "2x8nodes-8tasks-384KB", Nodes: 8, Tasks: 1, Particles: 8192},
			// Large-state compare shape: 4 tasks of ~1MB. Above the
			// stageWorkerBytes crossover, so this is the case where a wide
			// compare stage must beat the serial walk on a multicore box
			// (on one core every stage is width 1 and the ratio is ~1x).
			BenchSpec{Name: "2x2nodes-4tasks-4MB", Nodes: 2, Tasks: 2, Particles: 21845},
		)
	}
	return specs
}

// BenchMeasurement is one variant's measured cost per operation.
type BenchMeasurement struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// BenchPhases is one round-op variant's mean per-round phase split:
// wall-clock span and summed per-task busy time for capture, exchange,
// and compare (core.Stats busy arrays, averaged over the measured
// rounds). On the yardstick leg busy == wall per phase and the wall spans
// sum to roughly the round; on a wide leg the spans overlap, which is
// exactly what the breakdown exists to show.
type BenchPhases struct {
	CaptureWallNs  int64 `json:"capture_wall_ns"`
	CaptureBusyNs  int64 `json:"capture_busy_ns"`
	ExchangeWallNs int64 `json:"exchange_wall_ns"`
	ExchangeBusyNs int64 `json:"exchange_busy_ns"`
	CompareWallNs  int64 `json:"compare_wall_ns"`
	CompareBusyNs  int64 `json:"compare_busy_ns"`
}

// BenchCase compares the serial baseline against the fast path for one
// (shape, operation) pair.
type BenchCase struct {
	Name string `json:"name"` // "<spec>/<op>"
	// Serial is the yardstick (or, on the dirty axis, the untracked
	// program); Fast is the controller's commit path.
	Serial BenchMeasurement `json:"serial"`
	Fast   BenchMeasurement `json:"fast"`
	// Speedup is Serial ns / Fast ns; AllocRatio is Serial allocs / Fast
	// allocs (capped denominators at 1).
	Speedup    float64 `json:"speedup"`
	AllocRatio float64 `json:"alloc_ratio"`
	// SerialPhases / FastPhases carry the round op's per-phase breakdown
	// (nil for capture/compare ops, whose measurement is a single phase).
	SerialPhases *BenchPhases `json:"serial_phases,omitempty"`
	FastPhases   *BenchPhases `json:"fast_phases,omitempty"`
}

// BenchReport is the serialized benchmark trajectory (BENCH_checkpoint.json).
type BenchReport struct {
	Version  int         `json:"version"`
	Quick    bool        `json:"quick"`
	MaxProcs int         `json:"maxprocs"`
	Cases    []BenchCase `json:"cases"`
}

// Find returns the case with the given name, or nil.
func (r *BenchReport) Find(name string) *BenchCase {
	for i := range r.Cases {
		if r.Cases[i].Name == name {
			return &r.Cases[i]
		}
	}
	return nil
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

func measurement(r testing.BenchmarkResult) BenchMeasurement {
	return BenchMeasurement{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func benchCase(name string, serial, fast testing.BenchmarkResult) BenchCase {
	s, f := measurement(serial), measurement(fast)
	spd := 0.0
	if f.NsPerOp > 0 {
		spd = round2(float64(s.NsPerOp) / float64(f.NsPerOp))
	}
	fAllocs := f.AllocsPerOp
	if fAllocs < 1 {
		fAllocs = 1
	}
	return BenchCase{
		Name:       name,
		Serial:     s,
		Fast:       f,
		Speedup:    spd,
		AllocRatio: round2(float64(s.AllocsPerOp) / float64(fAllocs)),
	}
}

// benchDirtyProgram is the dirty-ratio-axis workload: a flat float vector
// plus an iteration counter, where every iteration rewrites the same hot
// window (the first dirtyPct percent of the vector). The tracked variant
// marks exactly that window; the untracked variant holds its WriteSet as
// a named field and keeps it blind, so the runtime's ResetDirty cannot
// arm it behind the program's back — an armed-but-unmarked tracker would
// silently corrupt captures, blind means full re-pack, which is the
// pre-incremental behavior this axis baselines against.
type benchDirtyProgram struct {
	ws       pup.WriteSet
	tracked  bool
	dirtyPct int
	iter     int64
	vals     []float64
}

// DirtyRanges / ResetDirty forward to the write set only on the tracked
// leg; the untracked leg always reports blind.
func (b *benchDirtyProgram) DirtyRanges(dst []pup.Range) ([]pup.Range, bool) {
	if !b.tracked {
		return dst, false
	}
	return b.ws.DirtyRanges(dst)
}

func (b *benchDirtyProgram) ResetDirty() {
	if b.tracked {
		b.ws.ResetDirty()
	}
}

func (b *benchDirtyProgram) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int64(&b.iter)
	p.Label("vals")
	p.Float64s(&b.vals)
}

func (b *benchDirtyProgram) hotN() int {
	n := len(b.vals) * b.dirtyPct / 100
	if n < 1 {
		n = 1
	}
	return n
}

// Run is the same lock-step token ring as benchProgram; the fixed hot
// window keeps the dirty set deterministic regardless of how many
// iterations land between two checkpoint rounds.
func (b *benchDirtyProgram) Run(ctx *runtime.Ctx) error {
	next := ctx.AddrOfGlobal((ctx.GlobalTask() + 1) % ctx.NumTasks())
	spans := pup.FieldSpans(b)
	hot := spans["vals"].Slice(0, b.hotN(), 8)
	for {
		for i := 0; i < b.hotN(); i++ {
			b.vals[i] += 0.5
		}
		b.iter++
		if b.tracked {
			b.ws.MarkSpan(hot)
			b.ws.MarkSpan(spans["iter"])
		}
		if err := ctx.Send(next, 0, nil); err != nil {
			return err
		}
		if _, err := ctx.Recv(); err != nil {
			return err
		}
		if err := ctx.Progress(int(b.iter)); err != nil {
			return err
		}
	}
}

func benchDirtyFactory(floats, dirtyPct int, tracked bool) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		vals := make([]float64, floats)
		for i := range vals {
			vals[i] = float64(addr.Node*1000+addr.Task*100+i) * 0.001
		}
		return &benchDirtyProgram{tracked: tracked, dirtyPct: dirtyPct, vals: vals}
	}
}

// yardstick is the frozen serial commit round the "serial" legs measure:
// the commit path as it was before any fast path, kept only as a benchmark
// reference and reachable from no Config field. Two-pass PackTask and a
// fresh ckptstore.Capture per task (no pooling, no size hint, no dirty
// splice), replicas one after the other, link transfers and remote uploads
// inline one task at a time, every buddy pair compared in one serial walk.
// It deliberately shares no scheduling code with runRound, so a change to
// the round body cannot move both legs of a ratio at once. The controller
// lends its machine, consensus cut, link and store — a plain caller-style
// Mem, so nothing is recycled under it.
type yardstick struct {
	c *Controller
	// upload, if non-nil, receives every round's epoch inline.
	upload ckptstore.Store
	// capture / exchange / compare accumulate phase wall time over rounds.
	capture, exchange, compare time.Duration
	rounds                     int
}

// each walks the machine in dense (node, task) order.
func (y *yardstick) each(fn func(n, t int) error) error {
	for n := 0; n < y.c.cfg.NodesPerReplica; n++ {
		for t := 0; t < y.c.cfg.TasksPerNode; t++ {
			if err := fn(n, t); err != nil {
				return err
			}
		}
	}
	return nil
}

func (y *yardstick) captureReplica(rep int, epoch uint64) error {
	c := y.c
	return y.each(func(n, t int) error {
		data, err := c.machine.PackTask(runtime.Addr{Replica: rep, Node: n, Task: t})
		if err != nil {
			return err
		}
		return c.store.Put(c.key(rep, n, t, epoch), ckptstore.Capture(data, c.cfg.ChunkSize, 1))
	})
}

func (y *yardstick) compareEpoch(epoch uint64) error {
	c := y.c
	return y.each(func(n, t int) error {
		k0, k1 := c.key(0, n, t, epoch), c.key(1, n, t, epoch)
		if c.cfg.Comparison == ChecksumCompare {
			res, err := c.store.Compare(k0, k1)
			if err == nil && !res.Match {
				err = fmt.Errorf("yardstick: checksum %v at n%d/t%d", res, n, t)
			}
			return err
		}
		a, err := c.store.Get(k0)
		if err != nil {
			return err
		}
		b, err := c.store.Get(k1)
		if err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("yardstick: byte mismatch at n%d/t%d", n, t)
		}
		return nil
	})
}

// round is one full serial commit round against the running machine.
func (y *yardstick) round() error {
	c := y.c
	ready, err := c.coord.Request(consensus.BothReplicas)
	if err != nil {
		return err
	}
	<-ready
	defer c.coord.Release()
	epoch := c.nextEpoch()
	began := time.Now()
	for rep := 0; rep < 2; rep++ {
		if err := y.captureReplica(rep, epoch); err != nil {
			return err
		}
	}
	captured := time.Now()
	if c.exch != nil {
		if err := y.each(func(n, t int) error { return c.shipTask(epoch, n, t) }); err != nil {
			return err
		}
	}
	shipped := time.Now()
	if err := y.compareEpoch(epoch); err != nil {
		return err
	}
	y.capture += captured.Sub(began)
	y.exchange += shipped.Sub(captured)
	y.compare += time.Since(shipped)
	y.rounds++
	if c.exch != nil {
		if err := c.exch.shipResult(epoch); err != nil {
			return err
		}
		c.exch.prune(epoch)
	}
	c.committedEpoch = epoch
	c.store.Evict(epoch)
	if y.upload == nil {
		return nil
	}
	for rep := 0; rep < 2; rep++ {
		err := y.each(func(n, t int) error {
			ck, err := c.store.Get(c.key(rep, n, t, epoch))
			if err != nil {
				return err
			}
			return y.upload.Put(c.key(rep, n, t, epoch), ck)
		})
		if err != nil {
			return err
		}
	}
	y.upload.Evict(epoch)
	return nil
}

// phases is the yardstick's mean per-round phase split (busy == wall: the
// phases neither overlap each other nor themselves).
func (y *yardstick) phases() *BenchPhases {
	if y.rounds == 0 {
		return nil
	}
	n := time.Duration(y.rounds)
	c, x, m := int64(y.capture/n), int64(y.exchange/n), int64(y.compare/n)
	return &BenchPhases{CaptureWallNs: c, CaptureBusyNs: c, ExchangeWallNs: x, ExchangeBusyNs: x, CompareWallNs: m, CompareBusyNs: m}
}

// benchController builds an idle controller for the spec. The machine is
// not started: every task sits quiescent at its factory state, which
// satisfies the capture/compare quiescence contract without consensus.
// serial selects the leg: on the pure dirty axis it swaps in the untracked
// program (both legs run the controller's round, so the measured
// difference is dirty-chunk splice versus full re-pack alone); on every
// other axis it hands the controller a plain Mem store for the yardstick
// to drive and leaves the remote tier to the yardstick's inline upload.
func benchController(spec BenchSpec, serial bool) (*Controller, error) {
	yard := serial && spec.yardstickLeg()
	cfg := Config{
		NodesPerReplica: spec.Nodes,
		TasksPerNode:    spec.Tasks,
		Factory:         benchFactory(spec.Particles),
		Comparison:      ChecksumCompare,
	}
	switch {
	case spec.RemoteLatencyMs > 0:
		if !yard {
			cfg.RemoteStore = benchRemote(spec)
			cfg.RemoteFlushEvery = 1
		}
	case spec.linked():
		if spec.Dirty > 0 {
			cfg.Factory = benchDirtyFactory(spec.Particles, spec.Dirty, true)
		}
		cfg.Exchange = &ExchangeConfig{
			Latency:         time.Duration(spec.LinkLatencyMs) * time.Millisecond,
			Loss:            spec.LinkLossPct / 100,
			Seed:            42,
			ShipCheckpoints: true,
		}
	case spec.Dirty > 0:
		cfg.Factory = benchDirtyFactory(spec.Particles, spec.Dirty, !serial)
	default:
		cfg.Comparison = FullCompare
	}
	if yard {
		cfg.Store = ckptstore.NewMem()
	}
	return New(cfg)
}

func benchRemote(spec BenchSpec) ckptstore.Store {
	return ckptstore.NewRemote(ckptstore.RemoteOptions{Latency: time.Duration(spec.RemoteLatencyMs) * time.Millisecond})
}

// benchCapture measures one steady-state replica capture: capture under a
// fresh epoch, then evict the previous epoch — exactly the commit path's
// lifecycle, so on the fast leg eviction feeds the pool that the next
// capture draws from (the zero-allocation steady state).
func benchCapture(spec BenchSpec, serial bool) (testing.BenchmarkResult, *BenchPhases, error) {
	ctrl, err := benchController(spec, serial)
	if err != nil {
		return testing.BenchmarkResult{}, nil, err
	}
	// The fast leg is the round body at one-replica scope with no exchange
	// stage: exactly the capture stage the controller runs.
	capture := func(epoch uint64) error {
		_, _, err := ctrl.runRound(epoch, consensus.OnlyReplica(0), nil, nil)
		return err
	}
	if serial {
		y := &yardstick{c: ctrl}
		capture = func(epoch uint64) error { return y.captureReplica(0, epoch) }
	}
	epoch := uint64(0)
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			epoch++
			if err := capture(epoch); err != nil {
				benchErr = fmt.Errorf("capture: %w", err)
				b.FailNow()
			}
			ctrl.store.Evict(epoch)
		}
	})
	return res, nil, benchErr
}

// benchCompare measures the buddy comparison of one committed epoch, both
// replicas captured once up front: the yardstick's serial walk against
// the round body's compare stage.
func benchCompare(spec BenchSpec, serial bool) (testing.BenchmarkResult, *BenchPhases, error) {
	ctrl, err := benchController(spec, serial)
	if err != nil {
		return testing.BenchmarkResult{}, nil, err
	}
	y := &yardstick{c: ctrl}
	for rep := 0; rep < 2; rep++ {
		if err := y.captureReplica(rep, 1); err != nil {
			return testing.BenchmarkResult{}, nil, err
		}
	}
	tasks := spec.Tasks
	compare := func() error {
		w := ctrl.stageWidths()
		runStages(ctrl.outcomes, stage{width: w.compare, run: func(i int) error {
			mismatch, _, err := ctrl.compareTask(i/tasks, i%tasks, 1)
			if err == nil && mismatch != "" {
				err = errors.New(mismatch)
			}
			return err
		}})
		if f := firstFailure(ctrl.outcomes); f != nil {
			return f.err
		}
		return nil
	}
	if serial {
		compare = func() error { return y.compareEpoch(1) }
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := compare(); err != nil {
				benchErr = fmt.Errorf("compare: %w", err)
				b.FailNow()
			}
		}
	})
	return res, nil, benchErr
}

// benchRound measures the full live checkpoint round — consensus cut,
// two-replica capture, buddy comparison, commit + eviction — against a
// running machine whose tasks are mid-iteration when each round begins.
func benchRound(spec BenchSpec, serial bool) (testing.BenchmarkResult, *BenchPhases, error) {
	ctrl, err := benchController(spec, serial)
	if err != nil {
		return testing.BenchmarkResult{}, nil, err
	}
	round, phases := ctrl.checkpointRound, func() *BenchPhases { return roundPhases(&ctrl.stats) }
	if serial && spec.yardstickLeg() {
		y := &yardstick{c: ctrl}
		if spec.RemoteLatencyMs > 0 {
			y.upload = benchRemote(spec)
		}
		round, phases = y.round, y.phases
	}
	ctrl.start = time.Now()
	ctrl.machine.Start()
	defer ctrl.machine.Stop()
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := round(); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	// The fast leg's background writers must not outlive the measurement.
	for _, t := range ctrl.tiers {
		t.wg.Wait()
	}
	if benchErr == nil && ctrl.stats.SDCDetected > 0 {
		benchErr = fmt.Errorf("round: spurious SDC detected (%d)", ctrl.stats.SDCDetected)
	}
	return res, phases(), benchErr
}

// roundPhases averages the controller's per-round phase arrays (every
// committed round across the measurement, warmups included) into one
// BenchPhases breakdown. Nil when no round committed.
func roundPhases(s *Stats) *BenchPhases {
	n := len(s.CaptureTimes)
	if n == 0 || len(s.CaptureBusyTimes) != n || len(s.ExchangeTimes) != n ||
		len(s.ExchangeBusyTimes) != n || len(s.CompareTimes) != n || len(s.CompareBusyTimes) != n {
		return nil
	}
	mean := func(xs []time.Duration) int64 {
		var sum time.Duration
		for _, x := range xs {
			sum += x
		}
		return int64(sum) / int64(len(xs))
	}
	return &BenchPhases{
		CaptureWallNs:  mean(s.CaptureTimes),
		CaptureBusyNs:  mean(s.CaptureBusyTimes),
		ExchangeWallNs: mean(s.ExchangeTimes),
		ExchangeBusyNs: mean(s.ExchangeBusyTimes),
		CompareWallNs:  mean(s.CompareTimes),
		CompareBusyNs:  mean(s.CompareBusyTimes),
	}
}

// RunCheckpointBench runs the full serial-vs-fast matrix and assembles the
// report. Each (shape, operation, variant) cell is measured count times and
// the fastest run is kept — live rounds share the CPU with the replicas'
// task goroutines, so the minimum is the measurement least polluted by
// scheduler noise. only, when non-empty, restricts the matrix to specs
// whose name contains it as a substring (for targeted smoke runs). logf
// (may be nil) receives one progress line per case, plus a phase
// breakdown for round ops.
func RunCheckpointBench(quick bool, count, maxProcs int, only string, logf func(format string, args ...any)) (*BenchReport, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if count < 1 {
		count = 1
	}
	type op struct {
		name string
		run  func(BenchSpec, bool) (testing.BenchmarkResult, *BenchPhases, error)
	}
	ops := []op{
		{"capture", benchCapture},
		{"compare", benchCompare},
		{"round", benchRound},
	}
	best := func(spec BenchSpec, o op, serial bool) (testing.BenchmarkResult, *BenchPhases, error) {
		var min testing.BenchmarkResult
		var minPhases *BenchPhases
		for i := 0; i < count; i++ {
			r, ph, err := o.run(spec, serial)
			if err != nil {
				return testing.BenchmarkResult{}, nil, err
			}
			if i == 0 || r.NsPerOp() < min.NsPerOp() {
				min, minPhases = r, ph
			}
		}
		return min, minPhases, nil
	}
	report := &BenchReport{Version: 1, Quick: quick, MaxProcs: maxProcs}
	for _, spec := range DefaultBenchSpecs(quick) {
		if only != "" && !strings.Contains(spec.Name, only) {
			continue
		}
		for _, o := range ops {
			if (spec.Dirty > 0 || spec.linked() || spec.RemoteLatencyMs > 0) && o.name != "round" {
				continue
			}
			serial, serialPhases, err := best(spec, o, true)
			if err != nil {
				return nil, fmt.Errorf("%s/%s serial: %w", spec.Name, o.name, err)
			}
			fast, fastPhases, err := best(spec, o, false)
			if err != nil {
				return nil, fmt.Errorf("%s/%s fast: %w", spec.Name, o.name, err)
			}
			cs := benchCase(spec.Name+"/"+o.name, serial, fast)
			cs.SerialPhases, cs.FastPhases = serialPhases, fastPhases
			report.Cases = append(report.Cases, cs)
			logf("%-28s serial %10d ns/op %7d allocs/op | fast %10d ns/op %7d allocs/op | %.2fx, %.1fx fewer allocs",
				cs.Name, cs.Serial.NsPerOp, cs.Serial.AllocsPerOp, cs.Fast.NsPerOp, cs.Fast.AllocsPerOp,
				cs.Speedup, cs.AllocRatio)
			logPhases(logf, "serial", cs.SerialPhases)
			logPhases(logf, "fast", cs.FastPhases)
		}
	}
	return report, nil
}

// logPhases emits one variant's per-round phase breakdown, busy vs wall,
// so stage overlap is visible in the report rather than only in the total
// speedup. Silent for ops without phase data.
func logPhases(logf func(format string, args ...any), leg string, p *BenchPhases) {
	if p == nil {
		return
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	logf("  %-6s phases (busy/wall ms): capture %.2f/%.2f  exchange %.2f/%.2f  compare %.2f/%.2f",
		leg, ms(p.CaptureBusyNs), ms(p.CaptureWallNs),
		ms(p.ExchangeBusyNs), ms(p.ExchangeWallNs),
		ms(p.CompareBusyNs), ms(p.CompareWallNs))
}
