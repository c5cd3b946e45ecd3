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

// Norm returns the L1 norm of the block (a cheap integrity probe for
// tests).
func (j *Jacobi) Norm() float64 {
	s := 0.0
	for _, v := range j.U {
		s += math.Abs(v)
	}
	return s
}

// faceVals extracts the face of U in direction dir.
func (j *Jacobi) faceVals(dir int) []float64 {
	var out []float64
	switch dir {
	case 0, 1: // X faces: by*bz values
		i := 0
		if dir == 1 {
			i = j.BX - 1
		}
		out = make([]float64, 0, j.BY*j.BZ)
		for l := 0; l < j.BZ; l++ {
			for k := 0; k < j.BY; k++ {
				out = append(out, j.U[j.idx(i, k, l)])
			}
		}
	case 2, 3: // Y faces: bx*bz values
		k := 0
		if dir == 3 {
			k = j.BY - 1
		}
		out = make([]float64, 0, j.BX*j.BZ)
		for l := 0; l < j.BZ; l++ {
			for i := 0; i < j.BX; i++ {
				out = append(out, j.U[j.idx(i, k, l)])
			}
		}
	case 4, 5: // Z faces: bx*by values
		l := 0
		if dir == 5 {
			l = j.BZ - 1
		}
		out = make([]float64, 0, j.BX*j.BY)
		for k := 0; k < j.BY; k++ {
			for i := 0; i < j.BX; i++ {
				out = append(out, j.U[j.idx(i, k, l)])
			}
		}
	}
	return out
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

	var pending []runtime.Message
	halos := [6][]float64{}
	recvHalos := func(iter int) error {
		need := 0
		got := [6]bool{}
		for d := 0; d < 6; d++ {
			if neighbour[d] >= 0 {
				need++
			} else {
				got[d] = true
			}
		}
		take := func(m runtime.Message) bool {
			f := m.Data.(faceMsg)
			if f.Iter != iter {
				return false
			}
			for d := 0; d < 6; d++ {
				// My halo d arrives from neighbour[d], which sent its
				// opposite face.
				if !got[d] && neighbour[d] >= 0 && m.From == ctx.AddrOfGlobal(neighbour[d]) && f.Dir == opposite[d] {
					halos[d] = f.Vals
					got[d] = true
					need--
					return true
				}
			}
			return false
		}
		for i := 0; i < len(pending); {
			if take(pending[i]) {
				pending = append(pending[:i], pending[i+1:]...)
			} else {
				i++
			}
		}
		for need > 0 {
			m, err := ctx.Recv()
			if err != nil {
				return err
			}
			if !take(m) {
				pending = append(pending, m)
			}
		}
		return nil
	}

	for j.Iter < j.Iters {
		it := j.Iter
		for d := 0; d < 6; d++ {
			if neighbour[d] < 0 {
				continue
			}
			msg := faceMsg{Iter: it, Dir: d, Vals: j.faceVals(d)}
			if err := ctx.Send(ctx.AddrOfGlobal(neighbour[d]), 0, msg); err != nil {
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

// relax performs one 7-point sweep using the received halos (nil or empty
// halo faces act as zero boundaries).
func (j *Jacobi) relax(halos [6][]float64) {
	next := make([]float64, len(j.U))
	at := func(h []float64, i int) float64 {
		if h == nil {
			return 0
		}
		return h[i]
	}
	for l := 0; l < j.BZ; l++ {
		for k := 0; k < j.BY; k++ {
			for i := 0; i < j.BX; i++ {
				var xm, xp, ym, yp, zm, zp float64
				if i > 0 {
					xm = j.U[j.idx(i-1, k, l)]
				} else {
					xm = at(halos[0], l*j.BY+k)
				}
				if i < j.BX-1 {
					xp = j.U[j.idx(i+1, k, l)]
				} else {
					xp = at(halos[1], l*j.BY+k)
				}
				if k > 0 {
					ym = j.U[j.idx(i, k-1, l)]
				} else {
					ym = at(halos[2], l*j.BX+i)
				}
				if k < j.BY-1 {
					yp = j.U[j.idx(i, k+1, l)]
				} else {
					yp = at(halos[3], l*j.BX+i)
				}
				if l > 0 {
					zm = j.U[j.idx(i, k, l-1)]
				} else {
					zm = at(halos[4], k*j.BX+i)
				}
				if l < j.BZ-1 {
					zp = j.U[j.idx(i, k, l+1)]
				} else {
					zp = at(halos[5], k*j.BX+i)
				}
				c := j.U[j.idx(i, k, l)]
				next[j.idx(i, k, l)] = (c + xm + xp + ym + yp + zm + zp) / 7
			}
		}
	}
	j.U = next
}

// JacobiAMPI is the MPI-style Jacobi3D: a 1D slab decomposition along Z
// with blocking SendRecv halo exchange plus a per-iteration residual
// Allreduce, run through the AMPI layer (§6.1 runs the MPI codes on AMPI).
// Write-tracked the same way as Jacobi: U, the iteration counter, and the
// residual are dirtied every sweep; the slab geometry stays clean.
type JacobiAMPI struct {
	pup.WriteSet
	Iter, Iters int
	BX, BY, BZ  int
	U           []float64
	Residual    float64
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

func (j *JacobiAMPI) idx(i, k, l int) int { return (l*j.BY+k)*j.BX + i }

// Norm returns the L1 norm of the slab.
func (j *JacobiAMPI) Norm() float64 {
	s := 0.0
	for _, v := range j.U {
		s += math.Abs(v)
	}
	return s
}

// Run implements runtime.Program.
func (j *JacobiAMPI) Run(ctx *runtime.Ctx) error {
	r := ampi.New(ctx)
	rank, size := r.Rank(), r.Size()
	if j.U == nil {
		j.U = make([]float64, j.BX*j.BY*j.BZ)
		for c := range j.U {
			j.U[c] = jacobiInit(rank, c)
		}
	}
	spans := pup.FieldSpans(j)
	written := []pup.Range{spans["u"], spans["iter"], spans["residual"]}
	plane := j.BX * j.BY
	const tagDown, tagUp = 1, 2
	for j.Iter < j.Iters {
		// Halo exchange along Z: send the bottom plane down / top plane
		// up, receive the matching halos. Boundary ranks skip.
		var below, above []float64
		bottom := make([]float64, plane)
		copy(bottom, j.U[:plane])
		top := make([]float64, plane)
		copy(top, j.U[len(j.U)-plane:])
		if rank > 0 {
			if err := r.Send(rank-1, tagDown, bottom); err != nil {
				return err
			}
		}
		if rank < size-1 {
			if err := r.Send(rank+1, tagUp, top); err != nil {
				return err
			}
		}
		if rank > 0 {
			d, _, err := r.Recv(rank-1, tagUp)
			if err != nil {
				return err
			}
			below = d.([]float64)
		}
		if rank < size-1 {
			d, _, err := r.Recv(rank+1, tagDown)
			if err != nil {
				return err
			}
			above = d.([]float64)
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

// sweep relaxes the slab and returns the local squared-update residual.
func (j *JacobiAMPI) sweep(below, above []float64) float64 {
	next := make([]float64, len(j.U))
	res := 0.0
	at := func(h []float64, i int) float64 {
		if h == nil {
			return 0
		}
		return h[i]
	}
	for l := 0; l < j.BZ; l++ {
		for k := 0; k < j.BY; k++ {
			for i := 0; i < j.BX; i++ {
				var xm, xp, ym, yp, zm, zp float64
				if i > 0 {
					xm = j.U[j.idx(i-1, k, l)]
				}
				if i < j.BX-1 {
					xp = j.U[j.idx(i+1, k, l)]
				}
				if k > 0 {
					ym = j.U[j.idx(i, k-1, l)]
				}
				if k < j.BY-1 {
					yp = j.U[j.idx(i, k+1, l)]
				}
				if l > 0 {
					zm = j.U[j.idx(i, k, l-1)]
				} else {
					zm = at(below, k*j.BX+i)
				}
				if l < j.BZ-1 {
					zp = j.U[j.idx(i, k, l+1)]
				} else {
					zp = at(above, k*j.BX+i)
				}
				c := j.U[j.idx(i, k, l)]
				v := (c + xm + xp + ym + yp + zm + zp) / 7
				next[j.idx(i, k, l)] = v
				res += (v - c) * (v - c)
			}
		}
	}
	j.U = next
	return res
}
