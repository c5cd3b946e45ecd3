package pup_test

import (
	"bytes"
	"testing"

	"acr/internal/apps"
	"acr/internal/chaos"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// finalStates runs the program to completion on a plain machine and returns
// replica 0's packed task states; the machine is stopped on return.
func finalStates(t *testing.T, factory runtime.Factory, tasks int) [][]byte {
	t.Helper()
	m, err := runtime.NewMachine(runtime.Config{NodesPerReplica: 1, TasksPerNode: tasks, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	var states [][]byte
	for tk := 0; tk < tasks; tk++ {
		data, err := m.PackTask(runtime.Addr{Task: tk})
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, data)
	}
	return states
}

// The programs checkpoints are actually taken of — every Table 2 port and
// the chaos ring — must pack, through the wire view, to the bytes the
// per-element walk writes, and restore through either to the same state.
func TestProgramsPackLikeElementWalk(t *testing.T) {
	const iters, tasks = 6, 2
	type program struct {
		name    string
		factory runtime.Factory
	}
	programs := []program{{"chaos ring", chaos.RingFactory(tasks, iters, 600)}}
	for _, spec := range apps.Table2() {
		programs = append(programs, program{spec.Name, spec.Factory(iters)})
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			// No task is running any more, so nothing pups concurrently
			// with ElementWalk.
			for tk, data := range finalStates(t, pr.factory, tasks) {
				if len(data) < 64 {
					t.Fatalf("task %d packed only %d bytes", tk, len(data))
				}
				pack := func(obj pup.Pupable) []byte {
					out, err := pup.Pack(obj)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				viewed, walked := pr.factory(runtime.Addr{Task: tk}), pr.factory(runtime.Addr{Task: tk})
				if err := pup.Unpack(data, viewed); err != nil {
					t.Fatal(err)
				}
				var rewalked []byte
				pup.ElementWalk(func() {
					if err := pup.Unpack(data, walked); err != nil {
						t.Fatal(err)
					}
					rewalked = pack(viewed)
				})
				reviewed := pack(walked)
				if !bytes.Equal(rewalked, data) {
					t.Fatalf("task %d: the element walk packs different bytes", tk)
				}
				if !bytes.Equal(reviewed, data) {
					t.Fatalf("task %d: the element walk restores a different state", tk)
				}
			}
		})
	}
}
