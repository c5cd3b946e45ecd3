// Detection comparison: checkpoint-based versus message-based SDC
// detection (§3.3 of the paper). The paper chose checkpoint comparison
// because message comparison cannot see corruption that stays local to a
// task; this example makes both failure modes visible on a live run.
//
//	go run ./examples/detection_comparison
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"acr/internal/apps"
	"acr/internal/checksum"
	"acr/internal/ckptstore"
	"acr/internal/core"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// app sends one of its two state variables every iteration; the other
// never leaves the task.
type app struct {
	Iter, Iters  int
	Sent, Hidden float64
}

func (a *app) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&a.Iter)
	p.Label("iters")
	p.Int(&a.Iters)
	p.Label("sent")
	p.Float64(&a.Sent)
	p.Label("hidden")
	p.Float64(&a.Hidden)
}

func (a *app) Run(ctx *runtime.Ctx) error {
	n := ctx.NumTasks()
	next := ctx.AddrOfGlobal((ctx.GlobalTask() + 1) % n)
	for a.Iter < a.Iters {
		if err := ctx.Send(next, 1, a.Sent); err != nil {
			return err
		}
		m, err := ctx.Recv()
		if err != nil {
			return err
		}
		a.Sent += m.Data.(float64) * 1e-6
		a.Hidden *= 1.0000001
		a.Iter++
		if err := ctx.Progress(a.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

func run(corrupt func(*runtime.Machine)) (msgDivergences int, ckptMatch bool) {
	mc := runtime.NewMsgChecker(nil)
	m, err := runtime.NewMachine(runtime.Config{
		NodesPerReplica: 2,
		TasksPerNode:    2,
		Factory: func(runtime.Addr) runtime.Program {
			return &app{Iters: 300, Sent: 1, Hidden: 1}
		},
		MsgChecker: mc,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Stop()
	if corrupt != nil {
		corrupt(m)
	}
	m.Start()
	if err := m.Wait(); err != nil {
		log.Fatal(err)
	}
	msgDivergences = len(mc.Compare(2, 2, true))
	data, err := m.PackTask(runtime.Addr{Replica: 0, Node: 0, Task: 0})
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.CheckTask(runtime.Addr{Replica: 1, Node: 0, Task: 0}, data)
	if err != nil {
		log.Fatal(err)
	}
	return msgDivergences, res.Match
}

func main() {
	fmt.Println("scenario                      message-based   checkpoint-based")
	d, match := run(nil)
	fmt.Printf("%-28s  %-14s  %s\n", "clean run", verdict(d > 0), verdict(!match))

	d, match = run(func(m *runtime.Machine) {
		m.CorruptTask(runtime.Addr{Replica: 0, Node: 0, Task: 0}, func(p pup.Pupable) {
			p.(*app).Sent = 999 // corruption flows into messages
		})
	})
	fmt.Printf("%-28s  %-14s  %s\n", "corrupt communicated state", verdict(d > 0), verdict(!match))

	d, match = run(func(m *runtime.Machine) {
		m.CorruptTask(runtime.Addr{Replica: 0, Node: 0, Task: 0}, func(p pup.Pupable) {
			p.(*app).Hidden = 999 // corruption never leaves the task
		})
	})
	fmt.Printf("%-28s  %-14s  %s\n", "corrupt local-only state", verdict(d > 0), verdict(!match))
	fmt.Println("\nthe local-only row is §3.3's argument: message comparison misses it,")
	fmt.Println("checkpoint comparison catches it — which is why ACR compares checkpoints.")

	chunkLocalizationDemo()
	deltaSavingsDemo()
}

// chunkLocalizationDemo shows what detection looks like once checkpoints
// are chunked: the two-phase compare not only flags the mismatch, it names
// the corrupted chunk, turning "the replicas diverged" into "this 64 KiB
// of this task diverged".
func chunkLocalizationDemo() {
	j := &apps.Jacobi{Iters: 100, BX: 64, BY: 64, BZ: 64}
	j.U = make([]float64, j.BX*j.BY*j.BZ) // 2 MiB of interior state
	for i := range j.U {
		j.U[i] = math.Sin(float64(i) * 0.01)
	}
	clean, err := pup.Pack(j)
	if err != nil {
		log.Fatal(err)
	}
	const cell = 150000
	j.U[cell] += 1e-12 // a silent single-bit-scale upset
	dirty, err := pup.Pack(j)
	if err != nil {
		log.Fatal(err)
	}

	st := ckptstore.NewMem()
	a := ckptstore.Key{Replica: 0, Epoch: 1}
	b := ckptstore.Key{Replica: 1, Epoch: 1}
	if err := st.Put(a, ckptstore.Capture(clean, 0, 0)); err != nil {
		log.Fatal(err)
	}
	if err := st.Put(b, ckptstore.Capture(dirty, 0, 0)); err != nil {
		log.Fatal(err)
	}
	res, err := st.Compare(a, b)
	if err != nil {
		log.Fatal(err)
	}
	nChunks := checksum.NumChunks(len(clean), checksum.DefaultChunkSize)
	fmt.Printf("\nchunk localization: a 1e-12 upset in cell %d of a %d-byte Jacobi block\n", cell, len(clean))
	fmt.Printf("  two-phase compare: %v — chunk %d of %d (%d KiB each)\n",
		res, res.Chunk, nChunks, checksum.DefaultChunkSize>>10)
	fmt.Printf("  so a full re-send after SDC can ship 1 chunk instead of %d\n", nChunks)
}

// slab is a 64^3 Jacobi block whose interior has converged: each sweep
// still rewrites only one boundary slab, and says so through its write set.
type slab struct {
	pup.WriteSet
	Iter, Iters int
	U           []float64
}

const slabCells = 4096 // one 32 KiB slab of the 2 MiB block

func (s *slab) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&s.Iter)
	p.Label("iters")
	p.Int(&s.Iters)
	p.Label("u")
	p.Float64s(&s.U)
}

func (s *slab) Run(ctx *runtime.Ctx) error {
	spans := pup.FieldSpans(s)
	hot := spans["u"].Slice(0, slabCells, 8)
	for s.Iter < s.Iters {
		for i := range s.U[:slabCells] {
			s.U[i] += 0.5
		}
		s.Iter++
		s.MarkSpan(hot)
		s.MarkSpan(spans["iter"])
		if err := ctx.Progress(s.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// deltaSavingsDemo runs a mostly-unchanged state under the controller and
// reports what the live capture path saved: dirty-chunk capture re-packs
// and re-checksums only the chunks the application wrote since the previous
// checkpoint and splices the rest from the previous epoch's capture.
func deltaSavingsDemo() {
	ctrl, err := core.New(core.Config{
		NodesPerReplica: 1,
		TasksPerNode:    2,
		Factory: func(runtime.Addr) runtime.Program {
			return &slab{Iters: 20000, U: make([]float64, 64*64*64)}
		},
		Comparison:         core.ChecksumCompare,
		CheckpointInterval: 2 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndirty-chunk capture: %d checkpoints of 2 MiB blocks, ~2%% touched between checkpoints\n", stats.Checkpoints)
	fmt.Printf("  chunks re-packed: %d, spliced from the previous epoch: %d (dirty ratio %.2f)\n",
		stats.CaptureChunksPacked, stats.CaptureChunksReused, stats.DirtyRatio)
	fmt.Printf("  bytes copied from the previous capture instead of re-encoded: %d\n", stats.CaptureBytesReused)
}

func verdict(detected bool) string {
	if detected {
		return "DETECTED"
	}
	return "missed"
}
