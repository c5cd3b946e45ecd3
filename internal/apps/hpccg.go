package apps

import (
	"math"

	"acr/internal/ampi"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// HPCCG ports the Mantevo conjugate-gradient mini-app (§6.1): CG on the
// 27-point operator HPCCG generates (diagonal 27, off-diagonals -1), with
// the right-hand side chosen so the exact solution is all-ones — which
// gives recovery tests a ground truth. The global nx*ny*(nz*P) domain is
// decomposed into Z slabs across the P ranks, exactly like the original;
// the sparse matvec exchanges one X-Y plane of the search vector with each
// Z neighbour, and the dot products are Allreduce operations.
// Write-tracked: each CG iteration rewrites x, r, p, rtrans, and the
// iteration counter; the slab geometry and Init flag stay clean and
// splice from the previous checkpoint.
type HPCCG struct {
	pup.WriteSet
	Iter, Iters int
	NX, NY, NZ  int // local slab dimensions
	X, R, P     []float64
	RTrans      float64
	Init        bool
}

// HPCCGBlock is the default per-task slab edge for live runs.
const HPCCGBlock = 6

// HPCCGFactory builds HPCCG tasks with a 6^3 local slab.
func HPCCGFactory(iters int) runtime.Factory {
	return HPCCGFactorySized(iters, HPCCGBlock, HPCCGBlock, HPCCGBlock)
}

// HPCCGFactorySized builds HPCCG tasks with an arbitrary local slab (the
// paper's configuration is 40^3 rows per core).
func HPCCGFactorySized(iters, nx, ny, nz int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		return &HPCCG{Iters: iters, NX: nx, NY: ny, NZ: nz}
	}
}

// Pup implements pup.Pupable.
func (h *HPCCG) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&h.Iter)
	p.Label("iters")
	p.Int(&h.Iters)
	p.Label("nx")
	p.Int(&h.NX)
	p.Label("ny")
	p.Int(&h.NY)
	p.Label("nz")
	p.Int(&h.NZ)
	p.Label("x")
	p.Float64s(&h.X)
	p.Label("r")
	p.Float64s(&h.R)
	p.Label("p")
	p.Float64s(&h.P)
	p.Label("rtrans")
	p.Float64(&h.RTrans)
	p.Label("init")
	p.Bool(&h.Init)
}

func (h *HPCCG) n() int              { return h.NX * h.NY * h.NZ }
func (h *HPCCG) idx(i, j, k int) int { return (k*h.NY+j)*h.NX + i }
func (h *HPCCG) plane() int          { return h.NX * h.NY }

// rowNeighbors counts the in-bounds stencil neighbours of a global cell.
func rowNeighbors(i, j, gk, nx, ny, gnz int) int {
	c := 0
	for dk := -1; dk <= 1; dk++ {
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				if di == 0 && dj == 0 && dk == 0 {
					continue
				}
				if i+di >= 0 && i+di < nx && j+dj >= 0 && j+dj < ny && gk+dk >= 0 && gk+dk < gnz {
					c++
				}
			}
		}
	}
	return c
}

// matvec computes y = A*v on the local slab, using halo planes from the
// Z neighbours (nil when at a global boundary). A has 27 on the diagonal
// and -1 on every in-bounds stencil neighbour.
func (h *HPCCG) matvec(v, below, above []float64) []float64 {
	y := make([]float64, h.n())
	at := func(i, j, k int) float64 {
		if i < 0 || i >= h.NX || j < 0 || j >= h.NY {
			return 0
		}
		switch {
		case k < 0:
			if below == nil {
				return 0
			}
			return below[j*h.NX+i]
		case k >= h.NZ:
			if above == nil {
				return 0
			}
			return above[j*h.NX+i]
		default:
			return v[h.idx(i, j, k)]
		}
	}
	for k := 0; k < h.NZ; k++ {
		for j := 0; j < h.NY; j++ {
			for i := 0; i < h.NX; i++ {
				sum := 27 * v[h.idx(i, j, k)]
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							if di == 0 && dj == 0 && dk == 0 {
								continue
							}
							sum -= at(i+di, j+dj, k+dk)
						}
					}
				}
				y[h.idx(i, j, k)] = sum
			}
		}
	}
	return y
}

// exchange swaps boundary planes of v with the Z neighbours.
func (h *HPCCG) exchange(r *ampi.Rank, v []float64) (below, above []float64, err error) {
	rank, size := r.Rank(), r.Size()
	pl := h.plane()
	const tagDown, tagUp = 3, 4
	if rank > 0 {
		bottom := make([]float64, pl)
		copy(bottom, v[:pl])
		if err := r.Send(rank-1, tagDown, bottom); err != nil {
			return nil, nil, err
		}
	}
	if rank < size-1 {
		top := make([]float64, pl)
		copy(top, v[len(v)-pl:])
		if err := r.Send(rank+1, tagUp, top); err != nil {
			return nil, nil, err
		}
	}
	if rank > 0 {
		d, _, err := r.Recv(rank-1, tagUp)
		if err != nil {
			return nil, nil, err
		}
		below = d.([]float64)
	}
	if rank < size-1 {
		d, _, err := r.Recv(rank+1, tagDown)
		if err != nil {
			return nil, nil, err
		}
		above = d.([]float64)
	}
	return below, above, nil
}

// Run implements runtime.Program: Iters CG iterations.
func (h *HPCCG) Run(ctx *runtime.Ctx) error {
	r := ampi.New(ctx)
	rank, size := r.Rank(), r.Size()
	gnz := h.NZ * size
	if !h.Init {
		// b chosen so that A*ones = b: b_i = 27 - neighbours(i).
		h.X = make([]float64, h.n())
		h.R = make([]float64, h.n()) // r = b - A*0 = b
		for k := 0; k < h.NZ; k++ {
			gk := rank*h.NZ + k
			for j := 0; j < h.NY; j++ {
				for i := 0; i < h.NX; i++ {
					h.R[h.idx(i, j, k)] = 27 - float64(rowNeighbors(i, j, gk, h.NX, h.NY, gnz))
				}
			}
		}
		h.P = append([]float64(nil), h.R...)
		local := 0.0
		for _, v := range h.R {
			local += v * v
		}
		rt, err := r.Allreduce(ampi.Sum, local)
		if err != nil {
			return err
		}
		h.RTrans = rt
		h.Init = true
	}
	// Layout is fixed once the vectors exist; spans stay valid below.
	spans := pup.FieldSpans(h)
	written := []pup.Range{spans["x"], spans["r"], spans["p"], spans["rtrans"], spans["iter"]}
	for h.Iter < h.Iters {
		below, above, err := h.exchange(r, h.P)
		if err != nil {
			return err
		}
		ap := h.matvec(h.P, below, above)
		localPAp := 0.0
		for i := range ap {
			localPAp += h.P[i] * ap[i]
		}
		pAp, err := r.Allreduce(ampi.Sum, localPAp)
		if err != nil {
			return err
		}
		alpha := h.RTrans / pAp
		localRT := 0.0
		for i := range h.X {
			h.X[i] += alpha * h.P[i]
			h.R[i] -= alpha * ap[i]
			localRT += h.R[i] * h.R[i]
		}
		newRT, err := r.Allreduce(ampi.Sum, localRT)
		if err != nil {
			return err
		}
		beta := newRT / h.RTrans
		h.RTrans = newRT
		for i := range h.P {
			h.P[i] = h.R[i] + beta*h.P[i]
		}
		h.Iter++
		for _, span := range written {
			h.MarkSpan(span)
		}
		if err := r.Progress(h.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// SolutionError returns the max-norm distance of the local solution from
// the exact all-ones answer.
func (h *HPCCG) SolutionError() float64 {
	worst := 0.0
	for _, v := range h.X {
		if d := math.Abs(v - 1); d > worst {
			worst = d
		}
	}
	return worst
}

// ResidualNorm returns sqrt(RTrans), the global residual 2-norm after the
// last completed iteration.
func (h *HPCCG) ResidualNorm() float64 { return math.Sqrt(h.RTrans) }
