package main

import (
	"fmt"
	"path/filepath"
	"time"

	"acr/internal/checksum"
	"acr/internal/ckptstore"
	"acr/internal/consensus"
	"acr/internal/core"
	"acr/internal/fleet"
	"acr/internal/model"
	"acr/internal/netsim"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// probeCalls is the minimum number of timed calls behind every probe
// metric; the metric is their median.
const probeCalls = 30

// probeSpan runs fn under a span so the trace shows where probe time went.
func probeSpan(x *runCtx, layer, name string, fn func()) {
	id := x.tr.begin(x.root, layer, "probe."+name)
	fn()
	x.tr.end(id)
}

func mbPerS(bytes int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / seconds
}

// probeErrs keeps the first error a probe's timed calls hit; a probe that
// failed reports its metric as measured up to then and the error is logged.
type probeErrs struct{ first error }

func (p *probeErrs) note(err error) {
	if err != nil && p.first == nil {
		p.first = err
	}
}

// liveProbes replays a live workload's own final state — replica 0's
// packed tasks — through each layer's exported functions, single-threaded,
// and returns per-layer metrics by name. It runs after the measured solve,
// so it cannot disturb it.
func liveProbes(x *runCtx, cfg core.Config, packed [][]byte) map[string]float64 {
	out := make(map[string]float64)
	var errs probeErrs
	data := packed[0]
	addr0 := runtime.Addr{}
	obj := cfg.Factory(addr0)
	if err := pup.Unpack(data, obj); err != nil {
		fmt.Fprintf(logOut, "  probes skipped: unpack final state: %v\n", err)
		return out
	}
	out["apps.state_kib_per_task"] = float64(len(data)) / 1024

	probeSpan(x, "pup", "pack", func() {
		buf := make([]byte, 0, len(data))
		out["pup.pack_mb_s"] = mbPerS(len(data), timeCalls(probeCalls, nil, func() {
			_, _, err := pup.PackInto(obj, buf)
			errs.note(err)
		}))
	})
	probeSpan(x, "pup", "unpack", func() {
		fresh := cfg.Factory(addr0)
		out["pup.unpack_mb_s"] = mbPerS(len(data), timeCalls(probeCalls, nil, func() {
			errs.note(pup.Unpack(data, fresh))
		}))
	})
	probeSpan(x, "pup", "check", func() {
		out["pup.check_mb_s"] = mbPerS(len(data), timeCalls(probeCalls, nil, func() {
			_, err := pup.Check(obj, data, 0)
			errs.note(err)
		}))
	})
	probeSpan(x, "checksum", "fletcher64", func() {
		out["checksum.fletcher64_mb_s"] = mbPerS(len(data), timeCalls(probeCalls, nil, func() {
			checksum.Fletcher64Chunks(data, cfg.ChunkSize, 1)
		}))
	})

	var ck *ckptstore.Checkpoint
	probeSpan(x, "ckptstore", "capture", func() {
		out["ckptstore.capture_mb_s"] = mbPerS(len(data), timeCalls(probeCalls, nil, func() {
			ck = ckptstore.Capture(data, cfg.ChunkSize, 1)
		}))
	})
	probeSpan(x, "ckptstore", "mem", func() {
		mem := ckptstore.NewMem()
		key := ckptstore.Key{Epoch: 1}
		out["ckptstore.mem_put_us"] = 1e6 * timeCalls(probeCalls, nil, func() {
			errs.note(mem.Put(key, ck))
		})
		out["ckptstore.mem_get_us"] = 1e6 * timeCalls(probeCalls, nil, func() {
			_, err := mem.Get(key)
			errs.note(err)
		})
		twin := ck.Clone()
		out["ckptstore.compare_us"] = 1e6 * timeCalls(probeCalls, nil, func() {
			ckptstore.CompareCheckpoints(ck, twin)
		})
	})

	errs.note(machineProbes(x, cfg, packed, out))

	probeSpan(x, "consensus", "cut", func() {
		out["consensus.cut_us"] = 1e6 * timeCalls(probeCalls, nil, func() {
			errs.note(consensusCut(cfg.NodesPerReplica, cfg.TasksPerNode))
		})
	})
	probeSpan(x, "netsim", "link_send", func() {
		p := netsim.LinkParams{Seed: x.seed}
		if cfg.Exchange != nil {
			p.Loss, p.Dup, p.Reorder = cfg.Exchange.Loss, cfg.Exchange.Dup, cfg.Exchange.Reorder
		}
		link := netsim.NewLink(p)
		frame := make([]byte, checksum.DefaultChunkSize)
		out["netsim.link_send_us"] = 1e6 * timeCalls(probeCalls, nil, func() { link.Send(frame) })
	})
	if errs.first != nil {
		fmt.Fprintf(logOut, "  probe error: %v\n", errs.first)
	}
	return out
}

// markAllDirty tells a write-tracking task that its whole state changed,
// as every iteration of the live workloads does; without it a capture of
// the idle probe machine would splice everything from the previous one.
func markAllDirty(p pup.Pupable) {
	if t, ok := p.(interface{ MarkAll() }); ok {
		t.MarkAll()
	}
}

// machineProbes times capture and per-tier restart on a stopped machine of
// the workload's own shape holding the workload's final state: capture
// into a pooled in-memory store, then restarts of replica 0 from that
// store (ladder tier 0), from a disk tier (tiers 1-2) and from the
// simulated remote (tier 3) — the restart cost per tier of Fig 10.
func machineProbes(x *runCtx, cfg core.Config, packed [][]byte, out map[string]float64) error {
	nodes, tasks := cfg.NodesPerReplica, cfg.TasksPerNode
	m, err := runtime.NewMachine(runtime.Config{NodesPerReplica: nodes, TasksPerNode: tasks, Factory: cfg.Factory})
	if err != nil {
		return err
	}
	defer m.Stop()
	ckpts := make([][][]byte, nodes)
	for n := range ckpts {
		ckpts[n] = packed[n*tasks : (n+1)*tasks]
	}
	// Load the final state: the restored tasks see Iter == Iters, return at
	// once, and StopReplica leaves the replica quiescent for capture.
	if err := m.RestartReplica(0, ckpts); err != nil {
		return err
	}
	m.StopReplica(0)

	var errs probeErrs
	mem := ckptstore.NewMem()
	pool := ckptstore.NewPool(0)
	mem.SetPool(pool)
	epoch := uint64(0)
	probeSpan(x, "runtime", "capture_replica", func() {
		out["runtime.capture_replica_ms"] = 1e3 * timeCalls(probeCalls, func() {
			for n := 0; n < nodes; n++ {
				for t := 0; t < tasks; t++ {
					m.CorruptTask(runtime.Addr{Node: n, Task: t}, markAllDirty)
				}
			}
			mem.Evict(epoch) // retire older epochs into the pool, as commit does
			epoch++
		}, func() {
			errs.note(m.CaptureReplica(0, epoch, mem, runtime.CaptureOptions{ChunkSize: cfg.ChunkSize, Pool: pool}))
		})
	})
	if errs.first != nil {
		return errs.first
	}

	disk, err := ckptstore.NewDisk(filepath.Join(x.dir, "probe-disk"), nil)
	if err != nil {
		return err
	}
	defer disk.Close()
	remote := ckptstore.NewRemote(ckptstore.RemoteOptions{Latency: 2 * time.Millisecond, PerKB: 200 * time.Nanosecond})
	for n := 0; n < nodes; n++ {
		for t := 0; t < tasks; t++ {
			key := ckptstore.Key{Node: n, Task: t, Epoch: epoch}
			ck, err := mem.Get(key)
			if err != nil {
				return err
			}
			if err := disk.Put(key, ck.Clone()); err != nil {
				return err
			}
			if err := remote.Put(key, ck.Clone()); err != nil {
				return err
			}
		}
	}
	restart := func(st ckptstore.Store) float64 {
		return 1e3 * timeCalls(probeCalls, func() { m.StopReplica(0) }, func() {
			errs.note(m.RestartReplicaFromStore(0, epoch, st))
		})
	}
	probeSpan(x, "runtime", "restart_mem", func() { out["runtime.restart_mem_ms"] = restart(mem) })
	probeSpan(x, "runtime", "restart_disk", func() { out["runtime.restart_disk_ms"] = restart(disk) })
	probeSpan(x, "runtime", "restart_remote", func() { out["runtime.restart_remote_ms"] = restart(remote) })
	return errs.first
}

// consensusCut runs one checkpoint cut on a fresh coordinator with
// synthetic reporters: every task has reported iteration 0, the cut is
// requested, every task reports the cut iteration and parks, the decision
// arrives, and the round is released.
func consensusCut(nodes, tasks int) error {
	c := consensus.New(nodes, tasks)
	each := func(fn func(runtime.Addr)) {
		for rep := 0; rep < 2; rep++ {
			for n := 0; n < nodes; n++ {
				for t := 0; t < tasks; t++ {
					fn(runtime.Addr{Replica: rep, Node: n, Task: t})
				}
			}
		}
	}
	each(func(a runtime.Addr) { c.Report(a, 0) })
	ready, err := c.Request(consensus.BothReplicas)
	if err != nil {
		return err
	}
	each(func(a runtime.Addr) { c.Report(a, 1) })
	<-ready
	c.Release()
	return nil
}

// modelProbe feeds the measured checkpoint cost, restart cost, failure
// rates and bare solve time of a cg-faults repetition into the paper's
// analytic model and compares its prediction with the measured solve.
func modelProbe(r *repResult) map[string]float64 {
	out := make(map[string]float64)
	rounds, kills, sdcs := r.cnt[cntRounds], r.cnt[cntKills], r.cnt[cntSDCs]
	solve := r.solve.Seconds()
	if rounds == 0 || kills == 0 || sdcs == 0 {
		return out
	}
	restart := median(msAll(r.lat[latRecover])) / 1e3
	const secondsPerYear = 365.25 * 24 * 3600
	p := model.Params{
		W:                 r.cnt[cntBareS],
		Delta:             r.cnt[cntRoundS] / rounds,
		RH:                restart,
		RS:                restart,
		SocketsPerReplica: 1,
		// One socket per replica, so the per-socket rates are the system
		// rates: MTBF = solve / faults.
		HardMTBFSocketYears: solve / kills / secondsPerYear,
		SDCFITPerSocket:     1e9 / (solve / sdcs / 3600),
	}
	tau := solve/rounds - p.Delta
	predicted, err := p.TotalTime(model.Strong, tau)
	if err != nil {
		fmt.Fprintf(logOut, "  model probe: %v\n", err)
		return out
	}
	out["model.predicted_solve_s"] = predicted
	out["model.measured_over_predicted"] = solve / predicted
	return out
}

// fleetAdmitProbe times fleet.Scheduler.Submit to Admitted() on an idle
// scheduler, one tiny ring job at a time.
func fleetAdmitProbe(x *runCtx) (float64, error) {
	sched, err := fleet.New(fleet.Config{Nodes: acrdFleetNodes, Spares: acrdFleetSpares})
	if err != nil {
		return 0, err
	}
	defer sched.Close()
	samples := make([]float64, probeCalls)
	for i := range samples {
		t0 := time.Now()
		job, err := sched.Submit(fleet.JobSpec{Name: fmt.Sprintf("probe-%d", i), Nodes: 1, Tasks: 1, Iters: 50})
		if err != nil {
			return 0, err
		}
		<-job.Admitted()
		samples[i] = time.Since(t0).Seconds()
		if res := job.Wait(); !res.Completed {
			return 0, fmt.Errorf("fleet admit probe job failed: %s", res.Err)
		}
	}
	return 1e6 * median(samples), nil
}
