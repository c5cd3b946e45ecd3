package runtime_test

import (
	"fmt"
	"testing"

	"acr/internal/consensus"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// benchRing is the per-iteration task path and nothing else: one Send, one
// Recv, one Progress.
type benchRing struct{ Iter, Iters int }

func (r *benchRing) Pup(p *pup.PUPer) {
	p.Int(&r.Iter)
	p.Int(&r.Iters)
}

// ringPayload is boxed once so the benchmark's allocs/op are the runtime's.
var ringPayload any = 1.5

func (r *benchRing) Run(ctx *runtime.Ctx) error {
	next := ctx.AddrOfGlobal((ctx.GlobalTask() + 1) % ctx.NumTasks())
	for r.Iter < r.Iters {
		if err := ctx.Send(next, r.Iter, ringPayload); err != nil {
			return err
		}
		if _, err := ctx.Recv(); err != nil {
			return err
		}
		r.Iter++
		if err := ctx.Progress(r.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkRingIteration runs an N-task ring (per replica, both replicas) on
// a bare Machine for b.N iterations: ns/op is the wall time of one iteration
// of the whole ring, under a gate that does nothing and under a live
// consensus.Coordinator that is never asked for a cut. It lives in the
// external test package because consensus imports runtime.
func BenchmarkRingIteration(b *testing.B) {
	for _, n := range []int{2, 8} {
		for _, gate := range []string{"nop", "coordinator"} {
			b.Run(fmt.Sprintf("ring%d/%s", n, gate), func(b *testing.B) {
				cfg := runtime.Config{
					NodesPerReplica: n / 2,
					TasksPerNode:    2,
					Factory:         func(runtime.Addr) runtime.Program { return &benchRing{Iters: b.N} },
				}
				if gate == "coordinator" {
					cfg.Gate = consensus.New(cfg.NodesPerReplica, cfg.TasksPerNode)
				}
				m, err := runtime.NewMachine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer m.Stop()
				b.ReportAllocs()
				b.ResetTimer()
				m.Start()
				if err := m.Wait(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
