package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"acr/internal/acrd"
	"acr/internal/core"
	"acr/internal/pup"
)

func TestMain(m *testing.M) {
	logOut = io.Discard
	os.Exit(m.Run())
}

func TestQuantileInterpolates(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{10, 20}, 0.25, 12.5},
		{[]float64{7}, 0.99, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(tc.in, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.in, tc.q, got, tc.want)
		}
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99},
	} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	got, used := tail(samples, 0.99)
	if used != 0.90 || got != quantile(samples, 0.90) {
		t.Errorf("tail(100 samples, p99) = %v at p%v, want the p90 value %v", got, 100*used, quantile(samples, 0.90))
	}
	if _, used := tail(samples, 0.75); used != 0.75 {
		t.Errorf("tail must not raise the requested percentile: used %v", used)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Parent: 0, Layer: "bench", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Layer: "core", StartNs: 10, EndNs: 60},
		{ID: 3, Parent: 1, Layer: "core", StartNs: 40, EndNs: 80}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "ckptstore", StartNs: 20, EndNs: 30},
	}}
	got := tr.selfTimeByLayer()
	want := map[string]time.Duration{"bench": 30, "core": 40 + 40, "ckptstore": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self time %v, want %v", got, want)
	}
}

// repSize is the size of one repetition of a built-in workload.
func repSize(t *testing.T, name string) size {
	t.Helper()
	w, ok := findWorkload(workloads, name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w.full.div(repDivisor)
}

func TestFaultSchedulesDependOnlyOnSeed(t *testing.T) {
	sz := repSize(t, "cg-faults")
	a, b := cgSchedule(7, sz, cgNodes, cgTasks), cgSchedule(7, sz, cgNodes, cgTasks)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different kill/SDC schedules")
	}
	if reflect.DeepEqual(a, cgSchedule(8, sz, cgNodes, cgTasks)) {
		t.Error("different seeds produced the same kill/SDC targets")
	}
	kills, sdcs := 0, 0
	for i, f := range a {
		if i > 0 && f.afterCommits < a[i-1].afterCommits {
			t.Fatalf("schedule not in commit order at %d", i)
		}
		switch f.kind {
		case faultKill:
			kills++
			if f.afterCommits != int64(kills*killEvery) {
				t.Errorf("kill %d after commit %d, want %d", kills, f.afterCommits, kills*killEvery)
			}
			if f.addr.Replica != kills%2 {
				t.Errorf("kill %d hits replica %d; replicas must alternate", kills, f.addr.Replica)
			}
		case faultSDC:
			sdcs++
			if f.afterCommits != int64(sdcs*sdcEvery) {
				t.Errorf("SDC %d after commit %d, want %d", sdcs, f.afterCommits, sdcs*sdcEvery)
			}
		}
	}
	if kills != sz.kills || sdcs != sz.sdcs {
		t.Errorf("schedule has %d kills and %d SDCs, want %d and %d", kills, sdcs, sz.kills, sz.sdcs)
	}

	big := repSize(t, "bigstate-tiers")
	restores := restoreSchedule(big)
	if len(restores) != big.restores || restores[0].afterCommits != restoreEvery {
		t.Errorf("restore schedule %v", restores)
	}
}

func TestJobShapesAreASeededPermutation(t *testing.T) {
	const n = 143
	a, b := jobShapes(3, n), jobShapes(3, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different job shapes")
	}
	c := jobShapes(4, n)
	sameOrder := true
	for i := range a {
		if a[i].Nodes != c[i].Nodes || a[i].Tasks != c[i].Tasks || a[i].Iters != c[i].Iters {
			sameOrder = false
		}
	}
	if sameOrder {
		t.Error("different seeds submitted the jobs in the same order")
	}
	key := func(r acrd.SubmitRequest) [3]int { return [3]int{r.Nodes, r.Tasks, r.Iters} }
	multiset := func(rs []acrd.SubmitRequest) [][3]int {
		out := make([][3]int, len(rs))
		for i, r := range rs {
			out[i] = key(r)
		}
		sort.Slice(out, func(i, j int) bool {
			for k := 0; k < 3; k++ {
				if out[i][k] != out[j][k] {
					return out[i][k] < out[j][k]
				}
			}
			return false
		})
		return out
	}
	if !reflect.DeepEqual(multiset(a), multiset(c)) {
		t.Error("different seeds must offer the same multiset of jobs")
	}
	for _, r := range a {
		if r.Nodes < 1 || r.Nodes > 2 || r.Tasks < 1 || r.Tasks > 2 || r.Iters < 5000 || r.Iters > 15000 || r.FlushEvery != 1 {
			t.Fatalf("job shape out of range: %+v", r)
		}
	}
}

func TestSweepPacksAndUnpacks(t *testing.T) {
	s := &sweep{Iter: 3, Iters: 9, Floats: 5, Val: 1.25, V: []float64{1, 2, 3, 4, 5}}
	data, err := pup.Pack(s)
	if err != nil {
		t.Fatal(err)
	}
	var back sweep
	if err := pup.Unpack(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Iter != 3 || back.Iters != 9 || back.Floats != 5 || back.Val != 1.25 || !reflect.DeepEqual(back.V, s.V) {
		t.Errorf("round trip changed the state: %+v", back)
	}
	if res, err := pup.Check(&back, data, 0); err != nil || !res.Match {
		t.Errorf("checker disagrees with its own pack: %v %v", res, err)
	}
}

// The serial replay must agree, bit for bit, with a live checkpointed run.
func TestSweepReplayMatchesLiveRun(t *testing.T) {
	const iters, floats = 50, 2048
	ctrl, err := core.New(core.Config{
		NodesPerReplica:    bigNodes,
		TasksPerNode:       bigTasks,
		Factory:            sweepFactory(bigTasks, iters, floats),
		Scheme:             core.Strong,
		Comparison:         core.ChecksumCompare,
		CheckpointInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(); err != nil {
		t.Fatal(err)
	}
	states, err := finalStates(ctrl, bigNodes, bigTasks)
	if err != nil {
		t.Fatal(err)
	}
	golden := sweepReplay(bigNodes*bigTasks, iters, floats)
	for rep := range states {
		for i, packed := range states[rep] {
			if err := golden[i].check(packed, iters); err != nil {
				t.Errorf("replica %d task %d: %v", rep, i, err)
			}
		}
	}
	// The gate is live: one flipped bit in a checked element is caught.
	bad := append([]byte(nil), states[0][0]...)
	bad[len(bad)-8*floats] ^= 1 // first byte of V[0], a strided element
	if golden[0].check(bad, iters) == nil {
		t.Error("replay gate accepted a corrupted final state")
	}
}

// Flipping one byte of the cg-faults reference makes the run exit
// non-zero with correct=false.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	ref := [][]byte{{1, 2, 3}, {4, 5, 6}}
	ok := [2][][]byte{{{1, 2, 3}, {4, 5, 6}}, {{1, 2, 3}, {4, 5, 6}}}
	if m := checkAgainstReference(ok, ref); len(m) != 0 {
		t.Fatalf("clean state reported misses: %v", m)
	}
	ref[1][2] ^= 0x10
	if m := checkAgainstReference(ok, ref); len(m) != 2 {
		t.Fatalf("flipped reference byte: %d misses, want one per replica", len(m))
	}

	flipped := func(iters int) ([][]byte, time.Duration, error) {
		ref, bare, err := cgReference(iters)
		if err == nil {
			ref[0][len(ref[0])/2] ^= 1
		}
		return ref, bare, err
	}
	cg, _ := findWorkload(workloads, "cg-faults")
	cg.run = func(x *runCtx) (*repResult, error) { return cgFaultsWithReference(x, flipped) }
	table := []workload{cg}
	var stdout bytes.Buffer
	code := realMain(options{workload: "cg-faults", seed: 1, smoke: true}, &stdout, table)
	if code == 0 {
		t.Error("run with a corrupted reference exited 0")
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res resultJSON
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last stdout line is not the result JSON: %v", err)
	}
	if res.Correct {
		t.Error("result says correct=true with a corrupted reference")
	}
	for _, m := range endToEnd {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("result lacks end-to-end metric %s", m.name)
		}
	}
}

// BENCHMARK.json and the metric registry must name the same things.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the code %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	compare := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, %d in the registry", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s metric %d: listed %+v, registry %+v", kind, i, l, d)
			}
			switch {
			case bounded && (l.Bound == nil || *l.Bound != d.bound):
				t.Errorf("%s: bound of %s differs from the registry's %v", kind, d.name, d.bound)
			case !bounded && l.Bound != nil:
				t.Errorf("%s: %s must not carry a bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}
