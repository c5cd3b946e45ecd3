package apps

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/core"
	"acr/internal/runtime"
)

// acrRun executes an app under full ACR protection and returns the final
// packed states of replica 0 plus the run stats. With faulty set the run
// suffers one SDC — injected into replica 1 at the first compared round,
// which must detect it and roll back — and one hard error: node (0, 1) is
// killed from the commit hook of the first checkpoint that commits. The
// kill is paced by the protocol, not the wall clock: it lands while the
// consensus cut still holds every task parked mid-run, so the job can
// neither finish before it nor miss it, whatever the scheduler load.
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
		cfg.Chaos = point.HookFunc(func(id point.ID, _ *point.Info) {
			if id == point.CoreCommit && ctrl.Progress().Checkpoints >= 1 && killed.CompareAndSwap(false, true) {
				ctrl.KillNode(0, 1)
			}
		})
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
			cfg := core.Config{
				NodesPerReplica:    2,
				TasksPerNode:       2,
				Spares:             1,
				Factory:            spec.Factory(1000),
				Scheme:             core.Strong,
				Comparison:         core.ChecksumCompare,
				CheckpointInterval: 5 * time.Millisecond,
				HeartbeatInterval:  time.Millisecond,
				HeartbeatTimeout:   8 * time.Millisecond,
			}
			ctrl, err := core.New(cfg)
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
