package expt

import (
	"bytes"
	"strings"
	"testing"

	"acr/internal/model"
	"acr/internal/trace"
)

func TestFig1Shapes(t *testing.T) {
	pts := Fig1()
	if len(pts) != len(Fig1Sockets())*len(Fig1FITs()) {
		t.Fatalf("got %d points", len(pts))
	}
	byKey := map[[2]int]Fig1Point{}
	for _, p := range pts {
		byKey[[2]int{p.Sockets, int(p.FIT)}] = p
	}
	// Figure 1a: no-FT utilization collapses between 4K and 16K sockets.
	if byKey[[2]int{16384, 100}].NoFTUtil > 0.15 || byKey[[2]int{4096, 100}].NoFTUtil < 0.3 {
		t.Error("no-FT utilization collapse shape broken")
	}
	// Figure 1b: checkpointing lifts utilization but vulnerability stays.
	p := byKey[[2]int{65536, 10000}]
	if p.CkptUtil <= p.NoFTUtil {
		t.Error("checkpoint-only should beat no FT")
	}
	if p.CkptVuln < 0.9 {
		t.Errorf("checkpoint-only vulnerability at 10K FIT should be ~1, got %v", p.CkptVuln)
	}
	// Figure 1c: ACR kills vulnerability and stays roughly flat.
	for _, pt := range pts {
		if pt.ACRVuln != 0 {
			t.Error("ACR vulnerability must be zero")
		}
	}
	if flat := byKey[[2]int{1048576, 100}].ACRUtil / byKey[[2]int{4096, 100}].ACRUtil; flat < 0.75 {
		t.Errorf("ACR utilization should stay nearly constant, ratio %v", flat)
	}
	var buf bytes.Buffer
	FprintFig1(&buf)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("missing banner")
	}
}

func TestFig6Shapes(t *testing.T) {
	rows := Fig6()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	loads := map[string]int{}
	for _, r := range rows {
		loads[r.Scheme.String()] = r.MaxLinkLoad
	}
	if loads["default"] != 4 || loads["column"] != 1 || loads["mixed"] != 2 {
		t.Fatalf("Figure 6 link loads wrong: %v", loads)
	}
	var buf bytes.Buffer
	FprintFig6(&buf)
	if !strings.Contains(buf.String(), "column") {
		t.Error("render incomplete")
	}
}

func TestFig7Shapes(t *testing.T) {
	rows, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	find := func(sockets int, delta float64) Fig7Row {
		for _, r := range rows {
			if r.SocketsPerReplica == sockets && r.Delta == delta {
				return r
			}
		}
		t.Fatalf("row %d/%v missing", sockets, delta)
		return Fig7Row{}
	}
	// Paper anchors: delta=15s keeps every scheme above 45% at 256K.
	r := find(262144, 15)
	for _, sch := range model.Schemes() {
		if r.Util[sch] < 0.45 {
			t.Errorf("delta=15 %v utilization %.3f < 0.45", sch, r.Util[sch])
		}
	}
	// delta=180s: strong drops toward 37%, weak/medium stay above 43%.
	r = find(262144, 180)
	if r.Util[model.Strong] > 0.42 || r.Util[model.Strong] < 0.3 {
		t.Errorf("strong delta=180 utilization %.3f, want ~0.37", r.Util[model.Strong])
	}
	if r.Util[model.Weak] < 0.43 || r.Util[model.Medium] < 0.43 {
		t.Errorf("weak/medium delta=180 should stay above 0.43: %.3f/%.3f",
			r.Util[model.Weak], r.Util[model.Medium])
	}
	// 7b: strong detects everything; medium halves weak.
	for _, row := range rows {
		if row.Undetected[model.Strong] != 0 {
			t.Fatal("strong must have zero undetected probability")
		}
		if row.Undetected[model.Weak] < row.Undetected[model.Medium] {
			t.Fatal("weak must be at least as exposed as medium")
		}
	}
	// Growth with sockets for weak delta=180.
	if find(262144, 180).Undetected[model.Weak] <= find(1024, 180).Undetected[model.Weak] {
		t.Error("undetected probability should grow with machine size")
	}
	var buf bytes.Buffer
	if err := FprintFig7(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 7b") {
		t.Error("render incomplete")
	}
}

func TestFig8Shapes(t *testing.T) {
	rows, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	get := func(app, variant string, cores int) Fig8Row {
		for _, r := range rows {
			if r.App == app && r.Variant == variant && r.CoresPerReplica == cores {
				return r
			}
		}
		t.Fatalf("row %s/%s/%d missing", app, variant, cores)
		return Fig8Row{}
	}
	// §6.2: roughly fourfold growth of the default-mapping total from 1K
	// to 64K cores per replica for Jacobi3D, driven by transfer.
	j1 := get("Jacobi3D Charm++", "default", 1024)
	j64 := get("Jacobi3D Charm++", "default", 65536)
	if ratio := j64.Cost.Total() / j1.Cost.Total(); ratio < 2.5 || ratio > 6 {
		t.Errorf("default-mapping growth = %.2fx, want ~4x", ratio)
	}
	if j64.Cost.Transfer <= j1.Cost.Transfer {
		t.Error("transfer must drive the growth")
	}
	if j64.Cost.Local != j1.Cost.Local {
		t.Error("local checkpoint time must stay constant")
	}
	// Growth happens by 4K cores (Z reaches 32) and then flattens.
	j4 := get("Jacobi3D Charm++", "default", 4096)
	j16 := get("Jacobi3D Charm++", "default", 16384)
	if rel := j16.Cost.Total()/j4.Cost.Total() - 1; rel > 0.05 {
		t.Errorf("default-mapping cost should flatten beyond 4K cores, grew %.1f%%", rel*100)
	}
	// Column and mixed mappings remove the growth.
	c1 := get("Jacobi3D Charm++", "column", 1024)
	c64 := get("Jacobi3D Charm++", "column", 65536)
	if rel := c64.Cost.Total()/c1.Cost.Total() - 1; rel > 0.05 {
		t.Errorf("column mapping should be flat, grew %.1f%%", rel*100)
	}
	// Checksum: constant, mapping-free, but more expensive than column
	// for high-memory-pressure apps (§6.2).
	k64 := get("Jacobi3D Charm++", "checksum", 65536)
	if k64.Cost.Total() <= c64.Cost.Total() {
		t.Error("checksum should cost more than column mapping for Jacobi3D")
	}
	if k64.Cost.Transfer > 0.001 {
		t.Error("checksum transfer should be negligible")
	}
	// For the scattered MD apps the checksum method wins (§6.2).
	l64k := get("LeanMD", "checksum", 65536)
	l64d := get("LeanMD", "default", 65536)
	if l64k.Cost.Total() >= l64d.Cost.Total() {
		t.Error("checksum should beat the default exchange for LeanMD")
	}
	// MD apps are an order of magnitude cheaper overall (Figure 8c/8f
	// axis scale).
	if l64d.Cost.Total()*5 > j64.Cost.Total() {
		t.Error("LeanMD checkpoints should be far cheaper than Jacobi3D's")
	}
	var buf bytes.Buffer
	if err := FprintFig8(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LULESH") {
		t.Error("render incomplete")
	}
}

func TestFig10Shapes(t *testing.T) {
	rows, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	get := func(app, variant string, cores int) Fig10Row {
		for _, r := range rows {
			if r.App == app && r.Variant == variant && r.CoresPerReplica == cores {
				return r
			}
		}
		t.Fatalf("row %s/%s/%d missing", app, variant, cores)
		return Fig10Row{}
	}
	// Strong restart is cheapest and mapping-insensitive (§6.3).
	s := get("Jacobi3D Charm++", "strong", 65536)
	md := get("Jacobi3D Charm++", "medium (default)", 65536)
	mc := get("Jacobi3D Charm++", "medium (column)", 65536)
	if s.Cost.Total() >= md.Cost.Total() {
		t.Error("strong restart should beat medium (default)")
	}
	// Topology-aware mapping cuts the medium restart cost severalfold
	// (the paper's 2s -> 0.41s for Jacobi3D).
	if ratio := md.Cost.Total() / mc.Cost.Total(); ratio < 2 {
		t.Errorf("column mapping should cut medium restart severalfold, got %.2fx", ratio)
	}
	// The gain comes from the transfer stage.
	if md.Cost.Transfer <= mc.Cost.Transfer {
		t.Error("transfer must explain the medium-restart gap")
	}
	if md.Cost.Reconstruction != mc.Cost.Reconstruction {
		t.Error("reconstruction should not depend on the mapping")
	}
	// LeanMD: restart dominated by synchronization, growing slowly with
	// scale (Figure 10c).
	l1 := get("LeanMD", "strong", 1024)
	l64 := get("LeanMD", "strong", 65536)
	if l64.Cost.Reconstruction <= l1.Cost.Reconstruction {
		t.Error("LeanMD reconstruction should grow with core count")
	}
	var buf bytes.Buffer
	if err := FprintFig10(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "medium (column)") {
		t.Error("render incomplete")
	}
}

func TestFig9Shapes(t *testing.T) {
	rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	get := func(app, variant string, sockets int, sch model.Scheme) OverheadRow {
		for _, r := range rows {
			if r.App == app && r.Variant == variant && r.SocketsPerReplica == sockets && r.Scheme == sch {
				return r
			}
		}
		t.Fatalf("row missing")
		return OverheadRow{}
	}
	// Optimizations halve the default-mapping overhead (§6.2: "by 50%").
	jd := get("Jacobi3D Charm++", "default", 16384, model.Weak)
	jc := get("Jacobi3D Charm++", "column", 16384, model.Weak)
	if jc.OverheadPct >= jd.OverheadPct*0.75 {
		t.Errorf("column should cut Jacobi3D forward overhead: %.3f vs %.3f", jc.OverheadPct, jd.OverheadPct)
	}
	// Strong checkpoints more often, so its forward overhead is highest.
	js := get("Jacobi3D Charm++", "default", 16384, model.Strong)
	jw := get("Jacobi3D Charm++", "default", 16384, model.Weak)
	if js.OverheadPct <= jw.OverheadPct {
		t.Error("strong forward overhead should exceed weak")
	}
	if js.Tau >= jw.Tau {
		t.Error("strong must checkpoint more frequently")
	}
	// Overheads are small: Jacobi3D default ~1.5%, LeanMD far lower.
	if jd.OverheadPct > 5 || jd.OverheadPct <= 0 {
		t.Errorf("Jacobi3D default overhead %.2f%% out of the expected range", jd.OverheadPct)
	}
	ld := get("LeanMD", "default", 16384, model.Weak)
	if ld.OverheadPct >= jd.OverheadPct {
		t.Error("LeanMD forward overhead should be far below Jacobi3D's")
	}
	// Overheads grow with socket count (failure rate rises).
	if get("Jacobi3D Charm++", "default", 1024, model.Weak).OverheadPct >= jd.OverheadPct {
		t.Error("forward overhead should grow with sockets")
	}
	var buf bytes.Buffer
	if err := FprintFig9(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("render incomplete")
	}
}

func TestFig11Shapes(t *testing.T) {
	rows, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	get := func(app, variant string, sockets int, sch model.Scheme) OverheadRow {
		for _, r := range rows {
			if r.App == app && r.Variant == variant && r.SocketsPerReplica == sockets && r.Scheme == sch {
				return r
			}
		}
		t.Fatalf("row missing")
		return OverheadRow{}
	}
	// §6.3: overall overhead of strong stays below ~3% for Jacobi3D and
	// optimization cuts it further; strong > weak/medium despite its
	// faster restart, because of rework and denser checkpoints.
	js := get("Jacobi3D Charm++", "default", 16384, model.Strong)
	jw := get("Jacobi3D Charm++", "default", 16384, model.Weak)
	jsCol := get("Jacobi3D Charm++", "column+checksum", 16384, model.Strong)
	if js.OverheadPct > 4 {
		t.Errorf("Jacobi3D strong overall overhead %.2f%%, paper says < 3%%", js.OverheadPct)
	}
	if js.OverheadPct <= jw.OverheadPct {
		t.Error("strong overall overhead should exceed weak")
	}
	if jsCol.OverheadPct >= js.OverheadPct {
		t.Error("optimizations should reduce the overall overhead")
	}
	// Overall overhead exceeds the forward-path overhead alone.
	fwd, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.OverheadPct+1e-9 < fwd[i].OverheadPct {
			t.Fatalf("overall overhead below forward-path overhead at %+v", r)
		}
	}
	// LeanMD's overall overhead is a fraction of Jacobi3D's (paper: 0.45%
	// vs 3%).
	ls := get("LeanMD", "default", 16384, model.Strong)
	if ls.OverheadPct >= js.OverheadPct/2 {
		t.Errorf("LeanMD overhead %.2f%% should be well below Jacobi3D's %.2f%%", ls.OverheadPct, js.OverheadPct)
	}
	var buf bytes.Buffer
	if err := FprintFig11(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Error("render incomplete")
	}
}

func TestTable2Render(t *testing.T) {
	var buf bytes.Buffer
	FprintTable2(&buf)
	out := buf.String()
	for _, name := range []string{"Jacobi3D Charm++", "HPCCG", "LULESH", "LeanMD", "miniMD"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 2 missing %s", name)
		}
	}
}

func TestFig12Adaptivity(t *testing.T) {
	res, err := Fig12(DefaultFig12Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailureTimes) != 19 {
		t.Fatalf("injected %d failures, want 19", len(res.FailureTimes))
	}
	if len(res.CheckpointTimes) < 10 {
		t.Fatalf("only %d checkpoints", len(res.CheckpointTimes))
	}
	// The headline: the scheduled interval stretches as the failure rate
	// falls (the paper's 6 s -> 17 s).
	if res.LastInterval <= res.FirstInterval*1.5 {
		t.Fatalf("interval should grow markedly: %.1fs -> %.1fs", res.FirstInterval, res.LastInterval)
	}
	// More checkpoints land in the first half of the run than the second.
	firstHalfCk := 0
	for _, ct := range res.CheckpointTimes {
		if ct < 900 {
			firstHalfCk++
		}
	}
	if firstHalfCk <= len(res.CheckpointTimes)/2 {
		t.Errorf("checkpoints should be denser early: %d of %d in the first half",
			firstHalfCk, len(res.CheckpointTimes))
	}
	// Failures are front-loaded (power law, k < 1).
	firstHalf := 0
	for _, ft := range res.FailureTimes {
		if ft < 900 {
			firstHalf++
		}
	}
	if firstHalf <= len(res.FailureTimes)/2 {
		t.Error("failures should be front-loaded")
	}
	if res.UsefulFraction < 0.5 || res.UsefulFraction > 1 {
		t.Errorf("useful fraction %v implausible", res.UsefulFraction)
	}
	if len(res.Timeline.OfKind(trace.Checkpoint)) != len(res.CheckpointTimes) {
		t.Error("timeline inconsistent")
	}
	var buf bytes.Buffer
	if err := FprintFig12(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "checkpoint interval") {
		t.Error("render incomplete")
	}
}

func TestFig12Deterministic(t *testing.T) {
	a, err := Fig12(DefaultFig12Config())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig12(DefaultFig12Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CheckpointTimes) != len(b.CheckpointTimes) {
		t.Fatal("virtual-time run not reproducible")
	}
	for i := range a.CheckpointTimes {
		if a.CheckpointTimes[i] != b.CheckpointTimes[i] {
			t.Fatal("checkpoint times differ between identical runs")
		}
	}
}

func TestFig5ControlFlow(t *testing.T) {
	runs, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("got %d scenarios", len(runs))
	}
	for _, r := range runs {
		if r.Stats.HardErrors != 1 {
			t.Errorf("%s: hard errors = %d, want 1", r.Scenario.Name, r.Stats.HardErrors)
		}
		if r.Stats.Rollbacks == 0 {
			t.Errorf("%s: no restart recorded", r.Scenario.Name)
		}
		if r.Scenario.Periodic && r.Stats.Checkpoints == 0 {
			t.Errorf("%s: no checkpoints", r.Scenario.Name)
		}
		if !r.Scenario.Periodic && r.Stats.Checkpoints != 1 {
			t.Errorf("%s: hard-error-only mode should checkpoint exactly once (the recovery), got %d",
				r.Scenario.Name, r.Stats.Checkpoints)
		}
	}
	var buf bytes.Buffer
	if err := FprintFig5(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "weak resilience") {
		t.Error("render incomplete")
	}
}
