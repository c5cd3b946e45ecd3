package apps

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/chaos/pacing"
	"acr/internal/chaos/point"
	"acr/internal/core"
	"acr/internal/runtime"
)

// paceEvery is the iteration count between the rounds the pacer forces in
// these tests: the jobs below are sized as a dozen of them.
const paceEvery = 100

// paced makes cfg's job open a checkpoint round every paceEvery iterations
// whatever its interval timer does (internal/chaos/pacing), so the first
// compared round and the first commit are iterations of the job, not a race
// between its last iteration and a timer. next sees every firing first.
func paced(cfg *core.Config, ctrl **core.Controller, next point.Hook) *pacing.Pacer {
	p := pacing.New(func() { (*ctrl).PredictFailure() }, paceEvery, next)
	cfg.Chaos = p
	return p
}

// acrRun executes an app under full ACR protection and returns the final
// packed states of replica 0 plus the run stats. With faulty set the run
// suffers one SDC — injected into replica 1 at the first compared round,
// which must detect it and roll back — and one hard error: node (0, 1) is
// killed from the commit hook of the first checkpoint that commits. Both
// are paced by the protocol, not the wall clock: the pacer opens the first
// round at iteration paceEvery and the next one, which commits, at twice
// that, and the kill lands while the consensus cut still holds every task
// parked mid-run, so the job can neither finish before it nor miss it,
// whatever the scheduler load. The interval timer stays on for what comes
// after the kill: the weak scheme recovers at the next periodic checkpoint.
func acrRun(t *testing.T, factory runtime.Factory, scheme core.Scheme, faulty bool) ([][]byte, core.Stats) {
	t.Helper()
	const nodes, tasks = 2, 2
	cfg := core.Config{
		NodesPerReplica:    nodes,
		TasksPerNode:       tasks,
		Spares:             2,
		Factory:            factory,
		Scheme:             scheme,
		Comparison:         core.FullCompare,
		CheckpointInterval: 5 * time.Millisecond,
		HeartbeatInterval:  time.Millisecond,
		HeartbeatTimeout:   8 * time.Millisecond,
	}
	var ctrl *core.Controller
	if faulty {
		var killed atomic.Bool
		var pacer *pacing.Pacer
		pacer = paced(&cfg, &ctrl, point.HookFunc(func(id point.ID, _ *point.Info) {
			if id == point.CoreCommit && ctrl.Progress().Checkpoints >= 1 && killed.CompareAndSwap(false, true) {
				pacer.Stop() // recovery must find no task held by the pacer
				ctrl.KillNode(0, 1)
			}
		}))
	}
	ctrl, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulty {
		ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 1, Node: 0, Task: 1})
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for n := 0; n < nodes; n++ {
		for tk := 0; tk < tasks; tk++ {
			data, err := ctrl.Machine().PackTask(runtime.Addr{Replica: 0, Node: n, Task: tk})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data)
		}
	}
	return out, stats
}

// TestAllAppsSurviveFailures is the paper's end-to-end claim in miniature:
// for every mini-app, a run that suffers a hard error AND a silent data
// corruption finishes with exactly the state of a failure-free run.
func TestAllAppsSurviveFailures(t *testing.T) {
	schemes := []core.Scheme{core.Strong, core.Medium, core.Weak}
	for i, spec := range Table2() {
		spec := spec
		scheme := schemes[i%len(schemes)] // rotate schemes across apps
		t.Run(spec.Name+"/"+scheme.String(), func(t *testing.T) {
			t.Parallel()
			const iters = 1200
			clean, cleanStats := acrRun(t, spec.Factory(iters), scheme, false)
			if cleanStats.HardErrors != 0 {
				t.Fatal("clean run saw failures")
			}
			faulty, stats := acrRun(t, spec.Factory(iters), scheme, true)
			if stats.SDCDetected == 0 {
				t.Error("injected SDC was not detected")
			}
			if stats.HardErrors == 0 {
				t.Error("hard error was not handled")
			}
			if stats.SparesUsed == 0 {
				t.Error("spare node was not consumed")
			}
			for j := range clean {
				if !bytes.Equal(clean[j], faulty[j]) {
					t.Fatalf("task %d final state differs from failure-free run", j)
				}
			}
		})
	}
}

// TestAppsUnderChecksumDetection repeats the SDC round trip with the
// Fletcher-checksum comparison method for one contiguous and one scattered
// app.
func TestAppsUnderChecksumDetection(t *testing.T) {
	for _, name := range []string{"Jacobi3D AMPI", "LeanMD"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// No interval timer: every round is one the pacer asks for.
			cfg := core.Config{
				NodesPerReplica:   2,
				TasksPerNode:      2,
				Spares:            1,
				Factory:           spec.Factory(1000),
				Scheme:            core.Strong,
				Comparison:        core.ChecksumCompare,
				HeartbeatInterval: time.Millisecond,
				HeartbeatTimeout:  8 * time.Millisecond,
			}
			var ctrl *core.Controller
			paced(&cfg, &ctrl, nil)
			ctrl, err = core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 0, Node: 1, Task: 0})
			stats, err := ctrl.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.SDCDetected == 0 {
				t.Fatal("checksum comparison missed the injected corruption")
			}
		})
	}
}

// TestPayloadRingSurvivesRecovery: the kernels recycle their outgoing halo
// payloads through a two-deep ring and double-buffer their grids, and none
// of that scratch is checkpointed. A job that is rolled back by an SDC and
// then loses a node mid-run — old incarnations cut off between a send and
// its receive, new ones starting with no scratch at all — must still end
// byte-equal to a run on a bare machine. Run it under -race: a slot written
// while a neighbour still reads it is a data race before it is a wrong bit.
func TestPayloadRingSurvivesRecovery(t *testing.T) {
	const iters = 600
	for name, factory := range map[string]runtime.Factory{
		"Jacobi":     JacobiFactorySized(iters, 6, 5, 7),
		"JacobiAMPI": JacobiAMPIFactorySized(iters, 6, 5, 7),
		"HPCCG":      HPCCGFactorySized(iters, 5, 4, 6),
	} {
		factory := factory
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			clean := runClean(t, factory, 2, 2)
			faulty, stats := acrRun(t, factory, core.Strong, true)
			if stats.SDCDetected == 0 || stats.HardErrors == 0 || stats.Rollbacks < 2 {
				t.Fatalf("job was not disturbed as planned: %+v", stats)
			}
			for i := range clean {
				if !bytes.Equal(clean[i], faulty[i]) {
					t.Fatalf("task %d final state differs from the bare run", i)
				}
			}
		})
	}
}

// TestLuleshCapturesItsDirtyThreeFifths: LULESH's honest write set is Pos,
// Vel and Energy; NodeMass and Mass are written only in setup. Once the
// first (blind, full) capture has armed the tracker, every round re-packs
// about three fifths of the task's chunks and splices the rest from the
// previous checkpoint.
func TestLuleshCapturesItsDirtyThreeFifths(t *testing.T) {
	// 2048 elements: five 16 KiB arrays per task, 1 KiB chunks.
	cfg := core.Config{
		NodesPerReplica: 1,
		TasksPerNode:    2,
		Factory:         LuleshFactorySized(5*paceEvery, 2048),
		Scheme:          core.Strong,
		Comparison:      core.ChecksumCompare,
		ChunkSize:       1 << 10,
	}
	var ctrl *core.Controller
	paced(&cfg, &ctrl, nil)
	ctrl, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints < 3 || stats.SDCDetected != 0 {
		t.Fatalf("want at least 3 clean rounds, got %+v", stats)
	}
	packed, reused, _ := ctrl.Machine().DirtyCounters()
	if ratio := float64(packed) / float64(packed+reused); ratio < 0.55 || ratio > 0.65 {
		t.Fatalf("tracked LULESH rounds packed %d of %d chunks (%.2f), want about 3/5", packed, packed+reused, ratio)
	}
}
