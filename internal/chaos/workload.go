package chaos

import (
	"math"

	"acr/internal/pup"
	"acr/internal/runtime"
)

// RingProg is the campaign workload: every task holds one float64 and each
// iteration sends it to its right ring neighbour, receives from the left,
// and folds the two values with a nonlinear mix. The fold makes any
// injected bit flip spread through the whole ring within N iterations, so
// an escaped corruption is always visible in the final state — exactly the
// property the golden-result invariant needs.
//
// With Scenario.PadFloats > 0 the task also carries Pad, a write-tracked
// bulk array updated one element per iteration. It is the dirty-capture
// surface: the embedded WriteSet makes every mem-tier campaign run through
// the splice/patch capture path, and the pad's mostly-clean body is where
// clean-chunk corruption and blinded-tracker staleness live. The final pad
// element is a sentinel the workload never writes — bytes that stay clean
// (spliced forward verbatim) for the whole run.
//
// The Pup layout puts Val last when there is no pad: the trailing 8 bytes
// of a packed RingProg are the float payload, which lets CkptCorrupt flip
// checkpoint bits that always unpack cleanly (a wrong value, never a
// structural error). With a pad, the trailing 8 bytes are the sentinel
// element instead — still a float payload, still structurally clean, but
// now one the dirty tracker never marks.
type RingProg struct {
	pup.WriteSet

	Iter  int
	Iters int
	Val   float64
	// Pad is the bulk dirty-tracking surface; see the type comment. Its
	// length is fixed for the whole run (Scenario.PadFloats), so the pack
	// layout never shifts.
	Pad []float64

	// self is the task's dense global index; set by the factory, derived
	// (not checkpointed).
	self int
	// muted suppresses write marks (TrackerBlind): the task keeps writing
	// but stops telling the tracker. Derived, not checkpointed — a restored
	// incarnation marks honestly again.
	muted bool
}

// Pup implements pup.Pupable. Keep Val the final scalar and Pad the final
// field (see type comment); the pad is gated on its length so padless
// scenarios keep the historical byte layout, and every unpack site sizes
// Pad from the same Scenario.PadFloats the packer used.
func (r *RingProg) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&r.Iter)
	p.Label("iters")
	p.Int(&r.Iters)
	p.Label("val")
	p.Float64(&r.Val)
	if len(r.Pad) > 0 {
		p.Label("pad")
		p.Float64s(&r.Pad)
	}
}

// initialVal seeds task g's value; distinct per task so a misrouted or
// corrupted exchange cannot cancel out.
func initialVal(g int) float64 { return 1 + 0.5*float64(g) }

// fold mixes the local value with the left neighbour's. Nonlinear in the
// difference, so single-bit perturbations never converge back to the
// fault-free trajectory.
func fold(local, left float64, iter int) float64 {
	return (local+left)/2 + 0.25*math.Sin(local-left) + 1e-3*float64(iter%7)
}

// padInc is the increment task g adds to its pad at iteration it. Distinct
// per (task, iteration) so a lost or replayed increment can never cancel
// out, and cumulative (+=) so a checkpoint that missed an increment stays
// wrong forever.
func padInc(g, it int) float64 { return 1 + 1e-3*float64(g) + 1e-6*float64(it) }

// Run implements runtime.Program.
func (r *RingProg) Run(ctx *runtime.Ctx) error {
	me := ctx.GlobalTask()
	right := ctx.AddrOfGlobal((me + 1) % ctx.NumTasks())
	spans := pup.FieldSpans(r)
	valSpan, iterSpan, padSpan := spans["val"], spans["iter"], spans["pad"]
	for r.Iter < r.Iters {
		if err := ctx.Send(right, r.Iter, r.Val); err != nil {
			return err
		}
		msg, err := ctx.Recv()
		if err != nil {
			return err
		}
		left := msg.Data.(float64)
		if n := len(r.Pad); n > 1 {
			// One cumulative pad write per iteration, cycling over every
			// element except the trailing sentinel.
			w := r.Iter % (n - 1)
			r.Pad[w] += padInc(r.self, r.Iter)
			if !r.muted {
				r.MarkSpan(padSpan.Slice(w, w+1, 8))
			}
		}
		r.Val = fold(r.Val, left, r.Iter)
		r.Iter++ // advance before yielding, per the Progress contract
		if !r.muted {
			r.MarkSpan(valSpan)
			r.MarkSpan(iterSpan)
		}
		if err := ctx.Progress(r.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// RingFactory builds the ring-workload task factory for a replica shape —
// the same self-spreading workload the campaign engine uses, exported for
// the fleet scheduler's multi-job golden verification.
func RingFactory(tasksPerNode, iters, padFloats int) runtime.Factory {
	return ringFactory(tasksPerNode, iters, padFloats)
}

// ringFactory builds the campaign's task factory for a replica shape.
func ringFactory(tasksPerNode, iters, padFloats int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		g := addr.Node*tasksPerNode + addr.Task
		p := &RingProg{Iters: iters, Val: initialVal(g), self: g}
		if padFloats > 0 {
			p.Pad = make([]float64, padFloats)
		}
		return p
	}
}

// GoldenFinal computes the fault-free final values serially: the reference
// the oracle compares recovered runs against, bit for bit.
func GoldenFinal(numTasks, iters int) []float64 {
	vals := make([]float64, numTasks)
	for g := range vals {
		vals[g] = initialVal(g)
	}
	next := make([]float64, numTasks)
	for it := 0; it < iters; it++ {
		for g := range vals {
			left := (g - 1 + numTasks) % numTasks
			next[g] = fold(vals[g], vals[left], it)
		}
		vals, next = next, vals
	}
	return vals
}

// GoldenPad computes every task's fault-free final pad serially. Pad
// evolution is local to each task and deterministic in (task, iteration),
// so correct recovery replays it bit for bit; a checkpoint that spliced
// stale pad bytes (a blinded tracker) loses increments permanently and
// diverges.
func GoldenPad(numTasks, iters, padFloats int) [][]float64 {
	pads := make([][]float64, numTasks)
	for g := range pads {
		pads[g] = make([]float64, padFloats)
		if padFloats <= 1 {
			continue
		}
		for it := 0; it < iters; it++ {
			pads[g][it%(padFloats-1)] += padInc(g, it)
		}
	}
	return pads
}
