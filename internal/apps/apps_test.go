package apps

import (
	"bytes"
	"testing"

	"acr/internal/pup"
	"acr/internal/runtime"
)

func TestGrid3(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 27, 64, 100} {
		px, py, pz := grid3(n)
		if px*py*pz != n {
			t.Fatalf("grid3(%d) = %d*%d*%d != %d", n, px, py, pz, n)
		}
		if px > py || py > pz {
			t.Fatalf("grid3(%d) = %d,%d,%d not ordered", n, px, py, pz)
		}
	}
	if px, py, pz := grid3(8); px != 2 || py != 2 || pz != 2 {
		t.Fatalf("grid3(8) = %d,%d,%d, want 2,2,2", px, py, pz)
	}
	if px, py, pz := grid3(27); px != 3 || py != 3 || pz != 3 {
		t.Fatalf("grid3(27) = %d,%d,%d, want 3,3,3", px, py, pz)
	}
}

func TestGrid2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 9, 12, 16} {
		px, py := grid2(n)
		if px*py != n || px > py {
			t.Fatalf("grid2(%d) = %d*%d", n, px, py)
		}
	}
	if px, py := grid2(16); px != 4 || py != 4 {
		t.Fatalf("grid2(16) = %d,%d", px, py)
	}
}

func TestTable2Catalog(t *testing.T) {
	specs := Table2()
	if len(specs) != 6 {
		t.Fatalf("Table2 has %d entries, want 6", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Config == "" || s.Factory == nil {
			t.Fatalf("incomplete spec %+v", s)
		}
		if s.CheckpointBytesPerCore <= 0 {
			t.Fatalf("%s: nonpositive checkpoint bytes", s.Name)
		}
		if names[s.Name] {
			t.Fatalf("duplicate spec %s", s.Name)
		}
		names[s.Name] = true
		// Table 2: the MD apps are low-pressure/scattered, the rest high.
		if s.Scattered == s.HighMemoryPressure == true {
			t.Fatalf("%s: scattered and high pressure are mutually exclusive here", s.Name)
		}
	}
	// Memory-pressure split matches Table 2.
	for _, hi := range []string{"Jacobi3D Charm++", "Jacobi3D AMPI", "HPCCG", "LULESH"} {
		s, err := SpecByName(hi)
		if err != nil {
			t.Fatal(err)
		}
		if !s.HighMemoryPressure || s.Scattered {
			t.Errorf("%s should be high-pressure contiguous", hi)
		}
	}
	for _, lo := range []string{"LeanMD", "miniMD"} {
		s, err := SpecByName(lo)
		if err != nil {
			t.Fatal(err)
		}
		if s.HighMemoryPressure || !s.Scattered {
			t.Errorf("%s should be low-pressure scattered", lo)
		}
	}
	// MD checkpoints are orders of magnitude smaller than the stencil
	// codes (the Figure 8c/8f scale difference).
	j, _ := SpecByName("Jacobi3D Charm++")
	l, _ := SpecByName("LeanMD")
	if l.CheckpointBytesPerCore*10 > j.CheckpointBytesPerCore {
		t.Error("LeanMD checkpoint should be far smaller than Jacobi3D's")
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestModelString(t *testing.T) {
	if MessageDriven.String() != "charm" || AMPI.String() != "ampi" || Model(9).String() == "" {
		t.Fatal("Model.String broken")
	}
}

// runClean executes an app on a plain machine (no ACR) and returns the
// final packed states of replica 0's tasks.
func runClean(t *testing.T, factory runtime.Factory, nodes, tasks int) [][]byte {
	t.Helper()
	m, err := runtime.NewMachine(runtime.Config{
		NodesPerReplica: nodes,
		TasksPerNode:    tasks,
		Factory:         factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for n := 0; n < nodes; n++ {
		for tk := 0; tk < tasks; tk++ {
			// Cross-check replicas while we are here.
			d0, err := m.PackTask(runtime.Addr{Replica: 0, Node: n, Task: tk})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.CheckTask(runtime.Addr{Replica: 1, Node: n, Task: tk}, d0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Match {
				t.Fatalf("replica divergence at n%d/t%d: %v", n, tk, res.Mismatches)
			}
			out = append(out, d0)
		}
	}
	return out
}

func TestAppsDeterministicAcrossRuns(t *testing.T) {
	for _, spec := range Table2() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			a := runClean(t, spec.Factory(12), 2, 2)
			b := runClean(t, spec.Factory(12), 2, 2)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("task %d state differs between identical runs", i)
				}
			}
		})
	}
}

func TestAppsPupRoundTrip(t *testing.T) {
	for _, spec := range Table2() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			states := runClean(t, spec.Factory(6), 1, 2)
			for _, data := range states {
				prog := spec.Factory(6)(runtime.Addr{})
				if err := pup.Unpack(data, prog); err != nil {
					t.Fatalf("unpack: %v", err)
				}
				re, err := pup.Pack(prog)
				if err != nil {
					t.Fatalf("repack: %v", err)
				}
				if !bytes.Equal(re, data) {
					t.Fatal("pack(unpack(x)) != x")
				}
			}
		})
	}
}
