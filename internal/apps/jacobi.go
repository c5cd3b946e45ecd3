package apps

import (
	"math"

	"acr/internal/ampi"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// Jacobi3D performs a 7-point stencil relaxation on a 3D structured mesh,
// the first kernel of §6.1. The message-driven variant decomposes the
// global mesh onto a 3D grid of tasks, each owning a bx*by*bz block and
// exchanging its six faces with neighbours every iteration; the global
// boundary is held at zero.

// faceMsg carries one face of a block.
type faceMsg struct {
	Iter int
	Dir  int // sender's face: 0 -X, 1 +X, 2 -Y, 3 +Y, 4 -Z, 5 +Z
	Vals []float64
}

// Jacobi is the message-driven Jacobi3D task. It write-tracks its state:
// each sweep rewrites all of U plus the iteration counter, so those two
// fields are marked dirty each iteration while the block geometry stays
// clean and splices from the previous checkpoint.
type Jacobi struct {
	pup.WriteSet
	Iter, Iters int
	BX, BY, BZ  int
	U           []float64

	// Scratch of the running incarnation (DESIGN.md §18): absent from Pup
	// and built on first use, so a restored task starts with none of it.
	next  []float64       // the sweep's output grid; swapped with U
	zero  []float64       // one all-zero row: the halo where the domain ends
	faces [6][2][]float64 // outgoing face payloads, two deep per direction
}

// JacobiBlock is the default per-task block edge for live runs.
const JacobiBlock = 8

// JacobiFactory builds message-driven Jacobi3D tasks with an 8^3 block.
func JacobiFactory(iters int) runtime.Factory {
	return JacobiFactorySized(iters, JacobiBlock, JacobiBlock, JacobiBlock)
}

// JacobiFactorySized builds message-driven Jacobi3D tasks with an arbitrary
// per-task block (the paper's configuration is 64x64x128 per core).
func JacobiFactorySized(iters, bx, by, bz int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		return &Jacobi{Iters: iters, BX: bx, BY: by, BZ: bz}
	}
}

// Pup implements pup.Pupable.
func (j *Jacobi) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&j.Iter)
	p.Label("iters")
	p.Int(&j.Iters)
	p.Label("bx")
	p.Int(&j.BX)
	p.Label("by")
	p.Int(&j.BY)
	p.Label("bz")
	p.Int(&j.BZ)
	p.Label("u")
	p.Float64s(&j.U)
}

func (j *Jacobi) idx(i, k, l int) int { return (l*j.BY+k)*j.BX + i }

// jacobiInit gives every cell a deterministic initial value derived from
// its global position.
func jacobiInit(g, local int) float64 {
	return math.Sin(float64(g)*1.3+float64(local)*0.17) + 2
}

// faceVals extracts the face of U in direction dir into the payload ring:
// iteration it's face lives in slot it&1, so the slot is next written two
// iterations later — after the neighbour's face of it+1 arrived, which it
// sent once it had finished reading this one (DESIGN.md §18).
func (j *Jacobi) faceVals(dir int) []float64 {
	bx, by, bz := j.BX, j.BY, j.BZ
	far := dir&1 == 1 // odd directions are the + faces
	f := fit(&j.faces[dir][j.Iter&1], [3]int{by * bz, bx * bz, bx * by}[dir/2])
	switch dir / 2 {
	case 0: // X faces: by*bz values, one per row
		i := 0
		if far {
			i = bx - 1
		}
		for r := range f {
			f[r] = j.U[r*bx+i]
		}
	case 1: // Y faces: bz rows of bx values
		k := 0
		if far {
			k = by - 1
		}
		for l := 0; l < bz; l++ {
			copy(f[l*bx:(l+1)*bx], j.U[j.idx(0, k, l):])
		}
	case 2: // Z faces: one bx*by plane
		l := 0
		if far {
			l = bz - 1
		}
		copy(f, j.U[j.idx(0, 0, l):])
	}
	return f
}

// Run implements runtime.Program.
func (j *Jacobi) Run(ctx *runtime.Ctx) error {
	px, py, pz := grid3(ctx.NumTasks())
	g := ctx.GlobalTask()
	gx := g % px
	gy := (g / px) % py
	gz := g / (px * py)
	if j.U == nil {
		j.U = make([]float64, j.BX*j.BY*j.BZ)
		for c := range j.U {
			j.U[c] = jacobiInit(g, c)
		}
	}
	// The pup layout is fixed from here on (U never resizes), so the
	// field spans computed once stay valid for every mark below.
	spans := pup.FieldSpans(j)
	written := []pup.Range{spans["u"], spans["iter"]}
	// neighbour[dir] is the global task index across my face dir, or -1.
	neighbour := [6]int{-1, -1, -1, -1, -1, -1}
	if gx > 0 {
		neighbour[0] = g - 1
	}
	if gx < px-1 {
		neighbour[1] = g + 1
	}
	if gy > 0 {
		neighbour[2] = g - px
	}
	if gy < py-1 {
		neighbour[3] = g + px
	}
	if gz > 0 {
		neighbour[4] = g - px*py
	}
	if gz < pz-1 {
		neighbour[5] = g + px*py
	}
	opposite := [6]int{1, 0, 3, 2, 5, 4}
	// Fixed for the incarnation: who sits across each face, and how many
	// faces one iteration receives.
	var across [6]runtime.Addr
	faces := 0
	for d, nb := range neighbour {
		if nb >= 0 {
			across[d] = ctx.AddrOfGlobal(nb)
			faces++
		}
	}

	var pending []runtime.Message
	var halos [6][]float64
	// take files m as a halo of iteration it if it is one still missing: my
	// halo d arrives from the neighbour across face d, which sent its
	// opposite face.
	take := func(m runtime.Message, it int) bool {
		f := m.Data.(faceMsg)
		d := opposite[f.Dir]
		if f.Iter != it || neighbour[d] < 0 || m.From != across[d] || halos[d] != nil {
			return false
		}
		halos[d] = f.Vals
		return true
	}
	recvHalos := func(it int) error {
		halos = [6][]float64{}
		need := faces
		kept := pending[:0]
		for _, m := range pending {
			if take(m, it) {
				need--
			} else {
				kept = append(kept, m)
			}
		}
		clear(pending[len(kept):]) // drop the payloads the queue no longer holds
		pending = kept
		for need > 0 {
			m, err := ctx.Recv()
			if err != nil {
				return err
			}
			if take(m, it) {
				need--
			} else {
				pending = append(pending, m)
			}
		}
		return nil
	}

	for j.Iter < j.Iters {
		it := j.Iter
		for d, nb := range neighbour {
			if nb < 0 {
				continue
			}
			msg := faceMsg{Iter: it, Dir: d, Vals: j.faceVals(d)}
			if err := ctx.Send(across[d], 0, msg); err != nil {
				return err
			}
		}
		if err := recvHalos(it); err != nil {
			return err
		}
		j.relax(halos)
		j.Iter++
		for _, span := range written {
			j.MarkSpan(span)
		}
		if err := ctx.Progress(j.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// relax performs one 7-point sweep using the received halos (a nil halo
// face acts as a zero boundary) and swaps the result into U.
func (j *Jacobi) relax(halos [6][]float64) {
	relax7(fit(&j.next, len(j.U)), j.U, fit(&j.zero, j.BX), j.BX, j.BY, j.BZ, &halos)
	j.U, j.next = j.next, j.U
}

// relax7 writes one 7-point sweep of the bx*by*bz block u into next, a row
// at a time: each (k, l) row takes its centre, ±Y and ±Z input rows as
// slices once — a row of u, a row of the halo face where the block ends,
// the shared all-zero row where the domain ends (c + 0.0 is what the
// boundary branch added) — and relaxRow runs over them. Faces are indexed
// as faceVals lays them out; the X faces hold one value per row.
func relax7(next, u, zero []float64, bx, by, bz int, halos *[6][]float64) {
	plane := bx * by
	// haloRow is row r of halo face d, or the zero row without one.
	haloRow := func(d, r int) []float64 {
		if h := halos[d]; h != nil {
			return h[r*bx : (r+1)*bx]
		}
		return zero
	}
	for l := 0; l < bz; l++ {
		for k := 0; k < by; k++ {
			r := l*by + k
			o := r * bx
			var ym, yp, zm, zp []float64
			if k > 0 {
				ym = u[o-bx : o]
			} else {
				ym = haloRow(2, l)
			}
			if k < by-1 {
				yp = u[o+bx : o+2*bx]
			} else {
				yp = haloRow(3, l)
			}
			if l > 0 {
				zm = u[o-plane : o-plane+bx]
			} else {
				zm = haloRow(4, k)
			}
			if l < bz-1 {
				zp = u[o+plane : o+plane+bx]
			} else {
				zp = haloRow(5, k)
			}
			var xm, xp float64
			if h := halos[0]; h != nil {
				xm = h[r]
			}
			if h := halos[1]; h != nil {
				xp = h[r]
			}
			relaxRow(next[o:o+bx], u[o:o+bx], ym, yp, zm, zp, xm, xp)
		}
	}
}

// relaxRow writes one row of a 7-point sweep with the operation order every
// result bit depends on, (c + xm + xp + ym + yp + zm + zp) / 7, where xm
// and xp stand in for the cells before c[0] and after c[len(c)-1]. Only
// those two cells keep the boundary form; the loop between them has no
// index arithmetic and no branch.
func relaxRow(out, c, ym, yp, zm, zp []float64, xm, xp float64) {
	last := len(out) - 1
	c, ym, yp, zm, zp = c[:last+1], ym[:last+1], yp[:last+1], zm[:last+1], zp[:last+1]
	if last == 0 {
		out[0] = (c[0] + xm + xp + ym[0] + yp[0] + zm[0] + zp[0]) / 7
		return
	}
	out[0] = (c[0] + xm + c[1] + ym[0] + yp[0] + zm[0] + zp[0]) / 7
	for i := 1; i < last; i++ {
		out[i] = (c[i] + c[i-1] + c[i+1] + ym[i] + yp[i] + zm[i] + zp[i]) / 7
	}
	out[last] = (c[last] + c[last-1] + xp + ym[last] + yp[last] + zm[last] + zp[last]) / 7
}

// JacobiAMPI is the MPI-style Jacobi3D: a 1D slab decomposition along Z
// with blocking Send/Recv halo exchange plus a per-iteration residual
// Allreduce, run through the AMPI layer (§6.1 runs the MPI codes on AMPI).
// Write-tracked the same way as Jacobi: U, the iteration counter, and the
// residual are dirtied every sweep; the slab geometry stays clean.
type JacobiAMPI struct {
	pup.WriteSet
	Iter, Iters int
	BX, BY, BZ  int
	U           []float64
	Residual    float64

	// Scratch, as in Jacobi: not checkpointed, built on first use.
	next   []float64
	zero   []float64
	planes planeRing // outgoing halo planes
}

// JacobiAMPIFactory builds AMPI Jacobi3D tasks with an 8^3 slab.
func JacobiAMPIFactory(iters int) runtime.Factory {
	return JacobiAMPIFactorySized(iters, JacobiBlock, JacobiBlock, JacobiBlock)
}

// JacobiAMPIFactorySized builds AMPI Jacobi3D tasks with an arbitrary slab.
func JacobiAMPIFactorySized(iters, bx, by, bz int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		return &JacobiAMPI{Iters: iters, BX: bx, BY: by, BZ: bz}
	}
}

// Pup implements pup.Pupable.
func (j *JacobiAMPI) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&j.Iter)
	p.Label("iters")
	p.Int(&j.Iters)
	p.Label("bx")
	p.Int(&j.BX)
	p.Label("by")
	p.Int(&j.BY)
	p.Label("bz")
	p.Int(&j.BZ)
	p.Label("u")
	p.Float64s(&j.U)
	p.Label("residual")
	p.Float64(&j.Residual)
}

// Run implements runtime.Program.
func (j *JacobiAMPI) Run(ctx *runtime.Ctx) error {
	r := ampi.New(ctx)
	if j.U == nil {
		j.U = make([]float64, j.BX*j.BY*j.BZ)
		for c := range j.U {
			j.U[c] = jacobiInit(r.Rank(), c)
		}
	}
	spans := pup.FieldSpans(j)
	written := []pup.Range{spans["u"], spans["iter"], spans["residual"]}
	const tagDown, tagUp = 1, 2
	for j.Iter < j.Iters {
		// Halo exchange along Z: bottom plane down, top plane up.
		below, above, err := j.planes.exchange(r, j.Iter, j.U, j.BX*j.BY, tagDown, tagUp)
		if err != nil {
			return err
		}
		local := j.sweep(below, above)
		res, err := r.Allreduce(ampi.Sum, local)
		if err != nil {
			return err
		}
		j.Residual = res
		j.Iter++
		for _, span := range written {
			j.MarkSpan(span)
		}
		if err := r.Progress(j.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// sweep relaxes the slab, swaps the result into U and returns the local
// squared-update residual, accumulated in cell order.
func (j *JacobiAMPI) sweep(below, above []float64) float64 {
	relax7(fit(&j.next, len(j.U)), j.U, fit(&j.zero, j.BX), j.BX, j.BY, j.BZ, &[6][]float64{4: below, 5: above})
	res := 0.0
	for i, v := range j.next {
		c := j.U[i]
		res += (v - c) * (v - c)
	}
	j.U, j.next = j.next, j.U
	return res
}
