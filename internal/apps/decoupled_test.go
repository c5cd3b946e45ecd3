package apps

import (
	"bytes"
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"testing"
	"time"

	"acr/internal/core"
	"acr/internal/runtime"
)

// TestDecoupledRoundsUnderFaults runs stencil-link's shape — message-driven
// Jacobi3D on 2x2 tasks, checksum comparison, digests over a lossy 0.5 ms
// link — with no chaos hook attached, on the schedule production runs:
// each replica is captured the moment its own tasks park, the first one's
// digests cross the link while the other catches up. Over
// twenty seeds a seeded plan of two kills and two SDCs is fired from the
// job's Progress() counts, each fault once the previous one was absorbed and
// another round committed, so kills land wherever the interval timer's
// rounds happen to be — before a cut, between the two replicas' handoffs,
// or in a body. Every run must end bit-identical to a bare run with every
// injected SDC detected and every kill recovered.
func TestDecoupledRoundsUnderFaults(t *testing.T) {
	const iters, seeds = 8000, 20
	factory := JacobiFactorySized(iters, 6, 6, 6)
	clean := runClean(t, factory, 2, 2)
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runFaultPlan(t, seed, factory, clean)
		})
	}
}

func runFaultPlan(t *testing.T, seed int64, factory runtime.Factory, clean [][]byte) {
	const nodes, tasks = 2, 2
	ctrl, err := core.New(core.Config{
		NodesPerReplica:    nodes,
		TasksPerNode:       tasks,
		Spares:             2,
		Factory:            factory,
		Scheme:             core.Strong,
		Comparison:         core.ChecksumCompare,
		CheckpointInterval: 2 * time.Millisecond,
		HeartbeatInterval:  time.Millisecond,
		HeartbeatTimeout:   8 * time.Millisecond,
		Exchange: &core.ExchangeConfig{
			Latency:         500 * time.Microsecond,
			Loss:            0.01,
			Seed:            seed,
			ShipCheckpoints: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var stats core.Stats
	var runErr error
	done := make(chan struct{})
	go func() {
		stats, runErr = ctrl.Run()
		close(done)
	}()
	// wait polls the job's counters until cond holds; false when the job
	// ended first.
	wait := func(cond func(core.Progress) bool) bool {
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
	rng := rand.New(rand.NewSource(seed))
	plan := []bool{true, true, false, false} // true: a kill, false: an SDC
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	var kills, sdcs int64
	for step, kill := range plan {
		after := ctrl.Progress().Checkpoints + 1 + int64(rng.Intn(2))
		if !wait(func(p core.Progress) bool { return p.Checkpoints >= after }) {
			<-done
			t.Fatalf("job ended before fault %d of the plan (%v): size it longer", step, plan)
		}
		rep, node, task := rng.Intn(2), rng.Intn(nodes), rng.Intn(tasks)
		if kill {
			kills++
			ctrl.KillNode(rep, node)
			if !wait(func(p core.Progress) bool { return p.HardErrors >= kills }) {
				break
			}
			continue
		}
		sdcs++
		ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: rep, Node: node, Task: task})
		if !wait(func(p core.Progress) bool { return p.SDCDetected >= sdcs }) {
			break
		}
	}
	<-done
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if int64(stats.HardErrors) != kills || int64(stats.SDCDetected) != sdcs {
		t.Fatalf("plan %v: hard errors %d / %d killed, SDCs detected %d / %d injected",
			plan, stats.HardErrors, kills, stats.SDCDetected, sdcs)
	}
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < nodes; n++ {
			for tk := 0; tk < tasks; tk++ {
				got, err := ctrl.Machine().PackTask(runtime.Addr{Replica: rep, Node: n, Task: tk})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, clean[n*tasks+tk]) {
					t.Fatalf("plan %v: r%d/n%d/t%d final state differs from the bare run", plan, rep, n, tk)
				}
			}
		}
	}
}
