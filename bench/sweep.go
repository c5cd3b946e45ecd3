package main

import (
	"fmt"
	"math"

	"acr/internal/pup"
	"acr/internal/runtime"
)

// sweep is the bigstate-tiers program: every task owns a large float64
// array that it rewrites completely each iteration, so every checkpoint
// captures the full state (dirty ratio 1) and capture is the dominant
// share of a round. Tasks are ring-synchronised through one scalar per
// iteration, which bounds replica skew and makes the final state a pure
// function of (task count, iterations) that sweepReplay recomputes
// serially for a strided subset of elements.
type sweep struct {
	pup.WriteSet
	Iter, Iters int
	Floats      int // array length; V is allocated on first Run
	Val         float64
	V           []float64
}

// sweepFloats is the array length of the full-size workload: 512Ki
// float64 = 4 MiB per task.
const sweepFloats = 512 << 10

// sweepCheckElems is how many strided elements per task the correctness
// gate replays.
const sweepCheckElems = 1024

func sweepFactory(tasksPerNode, iters, floats int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		g := addr.Node*tasksPerNode + addr.Task
		return &sweep{Iters: iters, Floats: floats, Val: sweepInitVal(g)}
	}
}

// Pup implements pup.Pupable.
func (s *sweep) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&s.Iter)
	p.Label("iters")
	p.Int(&s.Iters)
	p.Label("floats")
	p.Int(&s.Floats)
	p.Label("val")
	p.Float64(&s.Val)
	p.Label("v")
	p.Float64s(&s.V)
}

func sweepInitVal(g int) float64 { return 1 + 0.5*float64(g) }

func sweepInitElem(g, i int) float64 { return 0.01 * float64((31*g+i)%97) }

// sweepFold mixes the ring scalar with the left neighbour's. The explicit
// conversions forbid fused multiply-adds, so the live run and the serial
// replay round identically on every architecture.
func sweepFold(local, left float64, iter int) float64 {
	return float64((local+left)/2) + float64(0.25*math.Sin(local-left)) + float64(1e-3*float64(iter%7))
}

// sweepStep advances one array element given the task's new ring scalar.
func sweepStep(v, val float64, i int) float64 {
	return float64(0.5*v) + val + float64(0.125*float64(i&7))
}

// Run implements runtime.Program.
func (s *sweep) Run(ctx *runtime.Ctx) error {
	me := ctx.GlobalTask()
	right := ctx.AddrOfGlobal((me + 1) % ctx.NumTasks())
	if s.V == nil {
		s.V = make([]float64, s.Floats)
		for i := range s.V {
			s.V[i] = sweepInitElem(me, i)
		}
	}
	// The layout is fixed once V exists, so the spans stay valid below.
	spans := pup.FieldSpans(s)
	for s.Iter < s.Iters {
		if err := ctx.Send(right, s.Iter, s.Val); err != nil {
			return err
		}
		msg, err := ctx.Recv()
		if err != nil {
			return err
		}
		s.Val = sweepFold(s.Val, msg.Data.(float64), s.Iter)
		for i, v := range s.V {
			s.V[i] = sweepStep(v, s.Val, i)
		}
		s.Iter++ // advance before yielding, per the Progress contract
		s.MarkSpan(spans["v"])
		s.MarkSpan(spans["val"])
		s.MarkSpan(spans["iter"])
		if err := ctx.Progress(s.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// sweepGolden is the serial reference for one task: its final ring scalar
// and the final value of the strided elements i = k*stride.
type sweepGolden struct {
	val    float64
	stride int
	elems  []float64
}

// sweepReplay recomputes, without the runtime, every task's final ring
// scalar and up to sweepCheckElems strided array elements.
func sweepReplay(numTasks, iters, floats int) []sweepGolden {
	vals := make([]float64, numTasks)
	for g := range vals {
		vals[g] = sweepInitVal(g)
	}
	// hist[it][g] is task g's scalar after iteration it.
	hist := make([][]float64, iters)
	for it := range hist {
		next := make([]float64, numTasks)
		for g := range vals {
			left := (g - 1 + numTasks) % numTasks
			next[g] = sweepFold(vals[g], vals[left], it)
		}
		hist[it] = next
		vals = next
	}
	stride := max(1, floats/sweepCheckElems)
	out := make([]sweepGolden, numTasks)
	for g := range out {
		gold := sweepGolden{val: vals[g], stride: stride}
		for i := 0; i < floats; i += stride {
			v := sweepInitElem(g, i)
			for it := 0; it < iters; it++ {
				v = sweepStep(v, hist[it][g], i)
			}
			gold.elems = append(gold.elems, v)
		}
		out[g] = gold
	}
	return out
}

// check compares a task's final packed state against the reference, bit
// for bit, and describes the first difference.
func (g sweepGolden) check(packed []byte, iters int) error {
	var s sweep
	if err := pup.Unpack(packed, &s); err != nil {
		return err
	}
	if s.Iter != iters {
		return fmt.Errorf("stopped at iteration %d of %d", s.Iter, iters)
	}
	if math.Float64bits(s.Val) != math.Float64bits(g.val) {
		return fmt.Errorf("ring scalar %v, reference %v", s.Val, g.val)
	}
	for k, want := range g.elems {
		i := k * g.stride
		if i >= len(s.V) {
			return fmt.Errorf("array has %d elements, reference expects index %d", len(s.V), i)
		}
		if math.Float64bits(s.V[i]) != math.Float64bits(want) {
			return fmt.Errorf("element %d is %v, reference %v", i, s.V[i], want)
		}
	}
	return nil
}
