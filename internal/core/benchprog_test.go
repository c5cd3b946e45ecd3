package core

import (
	"acr/internal/pup"
	"acr/internal/runtime"
)

// The two endless ring programs the in-package tests and BenchmarkRound run.
// Both advance a deterministic function of (initial state, iteration count),
// so the replicas' tasks are byte-identical whenever the consensus cut parks
// them at the same iteration — which it always does. Neither completes on its
// own; the caller stops the machine.

// benchParticle is one MD-style particle: six doubles piped field by field.
// The per-object Pup traversal is deliberate — it is the shape (apps.MD, any
// struct-of-structs state) where the Sizing pass costs as much as the
// Packing pass, which the size-hint fast path eliminates. A flat []float64
// state would make Sizing O(1) and hide the effect.
type benchParticle struct {
	X, Y, Z, VX, VY, VZ float64
}

func (a *benchParticle) Pup(p *pup.PUPer) {
	p.Float64(&a.X)
	p.Float64(&a.Y)
	p.Float64(&a.Z)
	p.Float64(&a.VX)
	p.Float64(&a.VY)
	p.Float64(&a.VZ)
}

type benchProgram struct {
	iter  int64
	atoms []benchParticle
}

func (b *benchProgram) Pup(p *pup.PUPer) {
	p.Int64(&b.iter)
	n := len(b.atoms)
	p.Int(&n)
	if p.Mode() == pup.Unpacking && len(b.atoms) != n {
		b.atoms = make([]benchParticle, n)
	}
	for i := range b.atoms {
		p.Object(&b.atoms[i])
	}
}

func (b *benchProgram) Run(ctx *runtime.Ctx) error {
	for {
		// Contract: state advances before Progress, so a checkpoint taken
		// while parked resumes at the next iteration.
		i := int(b.iter) % len(b.atoms)
		b.atoms[i].X += 0.25
		b.atoms[i].VX = -b.atoms[i].VX
		b.iter++
		if err := ringHop(ctx, int(b.iter)); err != nil {
			return err
		}
	}
}

// ringHop passes a token to the next task of the replica's ring and reports
// the iteration. The communication is not decoration: it keeps the tasks in
// lock step, like a halo-exchanging HPC app. A compute-only loop would let
// the scheduler run one task thousands of iterations ahead, and every round
// would start with a long catch-up march to the consensus target — measuring
// scheduler skew, not the commit path. The payload is nil because a boxed
// value would allocate per hop and charge task-side noise to the round.
func ringHop(ctx *runtime.Ctx, iter int) error {
	next := ctx.AddrOfGlobal((ctx.GlobalTask() + 1) % ctx.NumTasks())
	if err := ctx.Send(next, 0, nil); err != nil {
		return err
	}
	if _, err := ctx.Recv(); err != nil {
		return err
	}
	return ctx.Progress(iter)
}

// benchFactory seeds particles deterministically from (node, task) only —
// never the replica — so buddy tasks start identical.
func benchFactory(particles int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		atoms := make([]benchParticle, particles)
		for i := range atoms {
			v := float64(addr.Node*1000+addr.Task*100+i) * 0.001
			atoms[i] = benchParticle{X: v, Y: v + 1, Z: v + 2, VX: -v, VY: v * 2, VZ: 1 - v}
		}
		return &benchProgram{atoms: atoms}
	}
}

// benchDirtyProgram is a flat float vector plus an iteration counter, where
// every iteration rewrites the same hot window (the first dirtyPct percent
// of the vector), so the dirty set is the same however many iterations land
// between two rounds. The tracked variant marks exactly that window; the
// untracked variant holds its WriteSet as a named field and keeps it blind,
// so the runtime's ResetDirty cannot arm it behind the program's back — an
// armed-but-unmarked tracker would silently corrupt captures, blind means a
// full re-pack every round.
type benchDirtyProgram struct {
	ws       pup.WriteSet
	tracked  bool
	dirtyPct int
	iter     int64
	vals     []float64
}

func (b *benchDirtyProgram) DirtyRanges(dst []pup.Range) ([]pup.Range, bool) {
	if !b.tracked {
		return dst, false
	}
	return b.ws.DirtyRanges(dst)
}

func (b *benchDirtyProgram) ResetDirty() {
	if b.tracked {
		b.ws.ResetDirty()
	}
}

func (b *benchDirtyProgram) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int64(&b.iter)
	p.Label("vals")
	p.Float64s(&b.vals)
}

func (b *benchDirtyProgram) Run(ctx *runtime.Ctx) error {
	hotN := max(1, len(b.vals)*b.dirtyPct/100)
	spans := pup.FieldSpans(b)
	hot := spans["vals"].Slice(0, hotN, 8)
	for {
		for i := 0; i < hotN; i++ {
			b.vals[i] += 0.5
		}
		b.iter++
		if b.tracked {
			b.ws.MarkSpan(hot)
			b.ws.MarkSpan(spans["iter"])
		}
		if err := ringHop(ctx, int(b.iter)); err != nil {
			return err
		}
	}
}

func benchDirtyFactory(floats, dirtyPct int, tracked bool) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		vals := make([]float64, floats)
		for i := range vals {
			vals[i] = float64(addr.Node*1000+addr.Task*100+i) * 0.001
		}
		return &benchDirtyProgram{tracked: tracked, dirtyPct: dirtyPct, vals: vals}
	}
}
