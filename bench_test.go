package acr

// One benchmark per table/figure of the paper's evaluation: each bench
// regenerates the figure's data (the same code paths as `acrsim -fig N`)
// and reports the figure's headline quantity as a custom metric, so
// `go test -bench=. -benchmem` doubles as the full reproduction run.

import (
	"strings"
	"testing"
	"time"

	"acr/internal/apps"
	"acr/internal/core"
	"acr/internal/expt"
	"acr/internal/model"
	"acr/internal/runtime"
)

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(apps.Table2()); got != 6 {
			b.Fatalf("Table2 has %d entries", got)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	var pts []expt.Fig1Point
	for i := 0; i < b.N; i++ {
		pts = expt.Fig1()
	}
	for _, p := range pts {
		if p.Sockets == 1048576 && p.FIT == 100 {
			b.ReportMetric(p.ACRUtil, "acr-util-1M")
			b.ReportMetric(p.CkptVuln, "ckpt-vuln-1M")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := expt.Fig4()
		if len(series) != 3 {
			b.Fatal("expected three schemes")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := expt.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if len(runs) != 4 {
			b.Fatal("expected four scenarios")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	var rows []expt.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = expt.Fig6()
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.MaxLinkLoad), r.Scheme.String()+"-max-load")
	}
}

func BenchmarkFig7(b *testing.B) {
	var rows []expt.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = expt.Fig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.SocketsPerReplica == 262144 && r.Delta == 180 {
			b.ReportMetric(r.Util[model.Strong], "strong-util-256K-d180")
			b.ReportMetric(r.Undetected[model.Weak], "weak-undetected-256K-d180")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	var rows []expt.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = expt.Fig8()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.App == "Jacobi3D Charm++" && r.CoresPerReplica == 65536 {
			b.ReportMetric(r.Cost.Total(), "jacobi-64K-"+r.Variant+"-sec")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	var rows []expt.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = expt.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.App == "Jacobi3D Charm++" && r.SocketsPerReplica == 16384 &&
			r.Scheme == model.Weak && (r.Variant == "default" || r.Variant == "column") {
			b.ReportMetric(r.OverheadPct, "jacobi-16K-"+r.Variant+"-pct")
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	var rows []expt.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = expt.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	names := map[string]string{
		"strong":           "strong",
		"medium (default)": "medium-default",
		"medium (column)":  "medium-column",
	}
	for _, r := range rows {
		if r.App == "Jacobi3D Charm++" && r.CoresPerReplica == 65536 {
			if short, ok := names[r.Variant]; ok {
				b.ReportMetric(r.Cost.Total(), "jacobi-64K-"+short+"-sec")
			}
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	var rows []expt.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = expt.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.SocketsPerReplica == 16384 && r.Scheme == model.Strong && r.Variant == "default" {
			b.ReportMetric(r.OverheadPct, strings.ReplaceAll(r.App, " ", "-")+"-overall-pct")
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	var res *expt.Fig12Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = expt.Fig12(expt.DefaultFig12Config())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FirstInterval, "first-interval-sec")
	b.ReportMetric(res.LastInterval, "last-interval-sec")
}

// BenchmarkLiveACR measures a complete protected run (replication,
// periodic checkpointing, SDC comparison) of each mini-app on the live
// runtime — the end-to-end cost of the framework at laptop scale.
func BenchmarkLiveACR(b *testing.B) {
	for _, spec := range apps.Table2() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctrl, err := core.New(core.Config{
					NodesPerReplica:    2,
					TasksPerNode:       2,
					Spares:             1,
					Factory:            spec.Factory(100),
					Scheme:             core.Strong,
					Comparison:         core.FullCompare,
					CheckpointInterval: 3 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				stats, err := ctrl.Run()
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(stats.Checkpoints), "checkpoints")
				}
			}
		})
	}
}

// BenchmarkLiveCheckpointRound isolates the cost of one coordinated
// checkpoint + comparison round for a contiguous and a scattered app.
func BenchmarkLiveCheckpointRound(b *testing.B) {
	for _, name := range []string{"Jacobi3D Charm++", "LeanMD"} {
		name := name
		b.Run(name, func(b *testing.B) {
			spec, err := apps.SpecByName(name)
			if err != nil {
				b.Fatal(err)
			}
			// Pack/compare cost on quiescent state, the dominant terms
			// of a checkpoint round.
			m, err := runtime.NewMachine(runtime.Config{
				NodesPerReplica: 1,
				TasksPerNode:    2,
				Factory:         spec.Factory(5),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Stop()
			m.Start()
			if err := m.Wait(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := m.PackTask(runtime.Addr{Replica: 0, Node: 0, Task: 0})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.CheckTask(runtime.Addr{Replica: 1, Node: 0, Task: 0}, data)
				if err != nil || !res.Match {
					b.Fatal("comparison failed")
				}
			}
		})
	}
}

// BenchmarkAblations regenerates the four design-choice ablation studies
// (adaptive vs fixed interval, dual vs TMR, blocking vs semi-blocking,
// memory vs disk) and reports their headline metrics.
func BenchmarkAblations(b *testing.B) {
	var ad, fx expt.AblationRun
	var cross float64
	var semis []expt.SemiBlockingRow
	for i := 0; i < b.N; i++ {
		ad, fx = expt.AdaptiveVsFixed(expt.DefaultAdaptiveAblationConfig())
		var err error
		_, cross, err = expt.DualVsTMRSweep()
		if err != nil {
			b.Fatal(err)
		}
		semis, err = expt.SemiBlockingAblation()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := expt.DiskAblation(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ad.UsefulFraction-fx.UsefulFraction, "adaptive-gain")
	b.ReportMetric(cross, "tmr-crossover-fit")
	b.ReportMetric(semis[0].HiddenFraction, "semiblocking-hidden-frac")
}
