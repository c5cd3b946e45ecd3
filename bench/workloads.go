package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"acr/internal/apps"
	"acr/internal/ckptstore"
	"acr/internal/core"
)

const (
	repDivisor   = 7
	smokeDivisor = 20
	// warmDivisor shrinks a repetition to its untimed-in-solve warm-up run,
	// which is part of that repetition's set-up.
	warmDivisor = 10
)

// runCtx is everything one repetition of a workload needs.
type runCtx struct {
	sz    size
	seed  int64 // the run's seed mixed with the repetition index
	tr    *tracer
	root  int64  // this workload's root span
	probe bool   // also replay the final state through the per-layer probes
	dir   string // fresh scratch directory owned by this repetition
}

// workloadFunc runs one repetition: set-up (timed as setup_s), the
// measured solve, the correctness gate, and in the traced pass the probes.
type workloadFunc func(x *runCtx) (*repResult, error)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string // BENCHMARK.json repeats this line
	// full is the issue's sizing-run size (about 20 s on two cores). One
	// repetition runs it divided by repDivisor; -smoke divides by
	// smokeDivisor. Only iters, fault counts and jobs scale.
	full size
	run  workloadFunc
}

// The fault counts are the issue's cadences (a kill every 4th commit, an
// SDC every 6th, a restore every 8th) run for the first ~70% of the commits
// this machine fits into the iteration count, so that every scheduled
// fault fires with margin before the application finishes.
var workloads = []workload{
	{"stencil-link", "forward path over a lossy buddy link: pipeline, exchange and netsim work; tiers, ladder and acrd idle",
		size{iters: 4000}, stencilLink},
	{"cg-faults", "restart and overall overhead: kills and SDCs drive tier-0 recovery, double rollback, dirty capture, byte compare, ampi",
		size{iters: 1500, kills: 49, sdcs: 28}, cgFaults},
	{"bigstate-tiers", "4 MiB/task fully dirty: capture dominates; disk flush, remote upload and tier-1/2 restore all run",
		size{iters: 8000, restores: 28, floats: sweepFloats}, bigstateTiers},
	{"acrd-load", "control plane under a closed loop of small jobs: acrd handlers and journal, fleet admission, per-job disk tier",
		size{jobs: 1000}, acrdLoad},
}

// warmUp runs a shrunken copy of the workload to completion, untimed by
// the solve clock: the first run in a fresh process pays page faults,
// pool fills and scheduler ramp-up that later runs do not.
func warmUp(cfg core.Config) error {
	ctrl, err := core.New(cfg)
	if err != nil {
		return err
	}
	if _, err := ctrl.Run(); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	return nil
}

const stencilNodes, stencilTasks = 2, 2

func stencilConfig(iters int, seed int64) core.Config {
	return core.Config{
		NodesPerReplica:    stencilNodes,
		TasksPerNode:       stencilTasks,
		Factory:            apps.JacobiFactorySized(iters, 32, 32, 64), // 512 KiB per task
		Scheme:             core.Strong,
		Comparison:         core.ChecksumCompare,
		CheckpointInterval: 50 * time.Millisecond,
		Exchange: &core.ExchangeConfig{
			Latency:         500 * time.Microsecond,
			Loss:            0.01,
			Seed:            seed,
			ShipCheckpoints: true,
		},
	}
}

// stencilLink is the paper's forward path (Fig 8): Jacobi3D, every round
// shipped over a 0.5 ms, 1%-loss link through the pipelined round, no
// faults.
func stencilLink(x *runCtx) (*repResult, error) {
	res := newRepResult()
	t0 := time.Now()
	if err := warmUp(stencilConfig(max(1, x.sz.iters/warmDivisor), x.seed)); err != nil {
		return nil, err
	}
	cfg := stencilConfig(x.sz.iters, x.seed)
	ctrl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	res.setup = time.Since(t0)

	run, err := runController(ctrl, nil, x.tr, x.root)
	if err != nil {
		return nil, err
	}
	res.record(run, x.sz.iters)

	states, err := finalStates(ctrl, stencilNodes, stencilTasks)
	if err != nil {
		return nil, err
	}
	for i := range states[0] {
		if !bytes.Equal(states[0][i], states[1][i]) {
			res.miss("stencil-link: task %d final state differs between replicas", i)
		}
	}
	if run.stats.SDCDetected != 0 {
		res.miss("stencil-link: %d SDCs detected with none injected", run.stats.SDCDetected)
	}
	if x.probe {
		res.probes = liveProbes(x, cfg, states[0])
	}
	return res, nil
}

const cgNodes, cgTasks = 2, 2

// cgSpares is the spare pool of a cg-faults repetition: twice the kills it
// injects. The issue's 512 (for 100 kills in one long run) is not used
// because every physical node, spares included, runs a 1 ms heartbeat
// goroutine: 516 of them are ~500k timer wake-ups a second on two cores,
// which made run-to-run spread the largest of any workload.
const cgSpares = 16

func cgConfig(iters int, interval time.Duration) core.Config {
	return core.Config{
		NodesPerReplica:    cgNodes,
		TasksPerNode:       cgTasks,
		Spares:             cgSpares,
		Factory:            apps.HPCCGFactorySized(iters, 24, 24, 24), // 324 KiB per task
		Scheme:             core.Strong,
		Comparison:         core.FullCompare,
		CheckpointInterval: interval,
		HeartbeatInterval:  time.Millisecond,
		HeartbeatTimeout:   4 * time.Millisecond,
	}
}

// cgReference runs the same problem with checkpointing off and returns its
// final task states (the golden result) and its solve time (the bare
// baseline behind apps.utilization_pct).
func cgReference(iters int) (ref [][]byte, bare time.Duration, err error) {
	ctrl, err := core.New(cgConfig(iters, 0))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if _, err := ctrl.Run(); err != nil {
		return nil, 0, fmt.Errorf("bare reference run: %w", err)
	}
	bare = time.Since(t0)
	states, err := finalStates(ctrl, cgNodes, cgTasks)
	if err != nil {
		return nil, 0, err
	}
	return states[0], bare, nil
}

// checkAgainstReference is the cg-faults final-state gate: every task of
// both replicas must equal the bare reference byte for byte.
func checkAgainstReference(states [2][][]byte, ref [][]byte) []string {
	var misses []string
	for rep := range states {
		for i, got := range states[rep] {
			if !bytes.Equal(got, ref[i]) {
				misses = append(misses, fmt.Sprintf("cg-faults: replica %d task %d final state differs from the bare reference", rep, i))
			}
		}
	}
	return misses
}

// cgFaults is restart and overall overhead (Figs 10-11): HPCCG under a
// fixed stream of hard kills and silent corruptions, in-memory tier only.
func cgFaults(x *runCtx) (*repResult, error) {
	return cgFaultsWithReference(x, cgReference)
}

// cgFaultsWithReference takes the reference run as a parameter so a test
// can hand the gate a corrupted golden state.
func cgFaultsWithReference(x *runCtx, reference func(iters int) ([][]byte, time.Duration, error)) (*repResult, error) {
	res := newRepResult()
	t0 := time.Now()
	ref, bare, err := reference(x.sz.iters)
	if err != nil {
		return nil, err
	}
	cfg := cgConfig(x.sz.iters, 25*time.Millisecond)
	ctrl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	faults := cgSchedule(x.seed, x.sz, cgNodes, cgTasks)
	res.setup = time.Since(t0)

	run, err := runController(ctrl, faults, x.tr, x.root)
	if err != nil {
		return nil, err
	}
	res.record(run, x.sz.iters)
	res.cnt[cntBareS] = bare.Seconds()

	states, err := finalStates(ctrl, cgNodes, cgTasks)
	if err != nil {
		return nil, err
	}
	res.misses = append(res.misses, checkAgainstReference(states, ref)...)
	if run.stats.SDCDetected != run.inj.sdcs {
		res.miss("cg-faults: %d SDCs detected, %d injected", run.stats.SDCDetected, run.inj.sdcs)
	}
	if run.stats.HardErrors != run.inj.kills {
		res.miss("cg-faults: %d hard errors recovered, %d nodes killed", run.stats.HardErrors, run.inj.kills)
	}
	if x.probe {
		res.probes = liveProbes(x, cfg, states[0])
		for k, v := range modelProbe(res) {
			res.probes[k] = v
		}
	}
	return res, nil
}

const bigNodes, bigTasks = 2, 1

// bigTiers is the durable side of a bigstate-tiers controller: a disk
// flush tier and a fault-injected remote tier behind the resilient
// wrapper, both wrapped in timedStores in the traced pass.
type bigTiers struct {
	cfg    core.Config
	disk   *ckptstore.Disk
	resil  *ckptstore.Resilient
	flush  *timedStore // nil when untraced
	remote *timedStore // nil when untraced
}

// newBigTiers builds the tiers in dir; timed wraps them in timedStores
// recording under x's tracer.
func newBigTiers(x *runCtx, dir string, iters int, timed bool) (*bigTiers, error) {
	disk, err := ckptstore.NewDisk(dir, nil)
	if err != nil {
		return nil, err
	}
	b := &bigTiers{disk: disk}
	var flush ckptstore.Store = disk
	if timed {
		b.flush = newTimedStore(disk, x.tr, x.root, "disk")
		flush = b.flush
	}
	b.resil = ckptstore.NewResilient(ckptstore.NewRemote(ckptstore.RemoteOptions{
		Latency:      2 * time.Millisecond,
		PerKB:        200 * time.Nanosecond,
		TimeoutRate:  0.02,
		ThrottleRate: 0.02,
		Seed:         x.seed,
	}), ckptstore.ResilientOptions{Fallback: flush, JitterSeed: x.seed})
	var remote ckptstore.Store = b.resil
	if timed {
		b.remote = newTimedStore(b.resil, x.tr, x.root, "remote")
		remote = b.remote
	}
	b.cfg = core.Config{
		NodesPerReplica:    bigNodes,
		TasksPerNode:       bigTasks,
		Factory:            sweepFactory(bigTasks, iters, x.sz.floats),
		Scheme:             core.Strong,
		Comparison:         core.ChecksumCompare,
		CheckpointInterval: 50 * time.Millisecond,
		// Cadence 4, not 2: at 2 the blocked-time distribution is bimodal
		// and the median flips between modes from run to run.
		FlushEvery:       4,
		FlushRetain:      3,
		FlushStore:       flush,
		RemoteStore:      remote,
		RemoteFlushEvery: 8,
	}
	return b, nil
}

func (b *bigTiers) close() error {
	b.resil.Close()
	return b.disk.Close()
}

// bigstateTiers is the large-state workload: the bench-owned sweep program
// with both durable tiers attached and on-demand restores from the newest
// durable epoch.
func bigstateTiers(x *runCtx) (*repResult, error) {
	res := newRepResult()
	t0 := time.Now()
	warm, err := newBigTiers(x, filepath.Join(x.dir, "warm"), max(1, x.sz.iters/warmDivisor), false)
	if err != nil {
		return nil, err
	}
	err = warmUp(warm.cfg)
	if cerr := warm.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	tiers, err := newBigTiers(x, filepath.Join(x.dir, "flush"), x.sz.iters, x.tr != nil)
	if err != nil {
		return nil, err
	}
	defer tiers.close()
	ctrl, err := core.New(tiers.cfg)
	if err != nil {
		return nil, err
	}
	res.setup = time.Since(t0)

	run, err := runController(ctrl, restoreSchedule(x.sz), x.tr, x.root)
	if err != nil {
		return nil, err
	}
	res.record(run, x.sz.iters)
	if tiers.flush != nil {
		puts, gets, putBytes := tiers.flush.samples()
		res.lat[latDiskPut], res.lat[latDiskGet] = puts, gets
		res.cnt[cntFlushBytes] = float64(putBytes)
		res.lat[latRemotePut], _, _ = tiers.remote.samples()
	}

	states, err := finalStates(ctrl, bigNodes, bigTasks)
	if err != nil {
		return nil, err
	}
	golden := sweepReplay(bigNodes*bigTasks, x.sz.iters, x.sz.floats)
	for rep := range states {
		for i, packed := range states[rep] {
			if err := golden[i].check(packed, x.sz.iters); err != nil {
				res.miss("bigstate-tiers: replica %d task %d: %v", rep, i, err)
			}
		}
	}
	if x.probe {
		res.probes = liveProbes(x, tiers.cfg, states[0])
	}
	return res, nil
}
