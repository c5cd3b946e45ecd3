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

	// Scratch of the running incarnation (DESIGN.md §18): absent from Pup
	// and built on first use, so a restored task starts with none of it.
	ap     []float64 // A*p of the current iteration
	zero   []float64 // one all-zero row: the input where the domain ends
	planes planeRing // outgoing halo planes of p
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

// matvecInto computes y = A*v on the local slab, using halo planes from
// the Z neighbours (nil when at a global boundary). A has 27 on the
// diagonal and -1 on every in-bounds stencil neighbour.
//
// It works a row at a time: each (j, k) row takes its nine input rows, in
// (dk, dj) order, as slices once — a row of v, a row of a halo plane where
// the slab ends, the shared all-zero row where the domain ends (x - 0.0 is
// exact, so subtracting it is the boundary branch's no-op) — and apply27Row
// runs over them.
func (h *HPCCG) matvecInto(y, v, below, above []float64) {
	nx, ny, nz := h.NX, h.NY, h.NZ
	zero := fit(&h.zero, nx)
	var rows [9][]float64
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for dk := -1; dk <= 1; dk++ {
				src, sk := v, k+dk // the plane the three rows come from
				switch {
				case sk < 0:
					src, sk = below, 0
				case sk >= nz:
					src, sk = above, 0
				}
				for dj := -1; dj <= 1; dj++ {
					row := zero
					if sj := j + dj; src != nil && sj >= 0 && sj < ny {
						o := (sk*ny + sj) * nx
						row = src[o : o+nx]
					}
					rows[(dk+1)*3+dj+1] = row
				}
			}
			o := h.idx(0, j, k)
			apply27Row(y[o:o+nx], &rows)
		}
	}
}

// apply27Row writes one row of the 27-point operator from its nine input
// rows (rows[4] is the row itself) with the operation order every result
// bit depends on: 27*v, then the 26 neighbours subtracted in dk, dj, di
// order. The conversion keeps an FMA-capable target from fusing the
// product into the first subtraction. The two X-edge cells go the general
// way.
func apply27Row(out []float64, rows *[9][]float64) {
	n := len(out)
	r0, r1, r2 := rows[0][:n], rows[1][:n], rows[2][:n]
	r3, r4, r5 := rows[3][:n], rows[4][:n], rows[5][:n]
	r6, r7, r8 := rows[6][:n], rows[7][:n], rows[8][:n]
	for i := 1; i < n-1; i++ {
		s := float64(27 * r4[i])
		s -= r0[i-1]
		s -= r0[i]
		s -= r0[i+1]
		s -= r1[i-1]
		s -= r1[i]
		s -= r1[i+1]
		s -= r2[i-1]
		s -= r2[i]
		s -= r2[i+1]
		s -= r3[i-1]
		s -= r3[i]
		s -= r3[i+1]
		s -= r4[i-1]
		s -= r4[i+1]
		s -= r5[i-1]
		s -= r5[i]
		s -= r5[i+1]
		s -= r6[i-1]
		s -= r6[i]
		s -= r6[i+1]
		s -= r7[i-1]
		s -= r7[i]
		s -= r7[i+1]
		s -= r8[i-1]
		s -= r8[i]
		s -= r8[i+1]
		out[i] = s
	}
	out[0] = edge27(rows, 0)
	if n > 1 {
		out[n-1] = edge27(rows, n-1)
	}
}

// edge27 is the operator at one cell the general way: every neighbour
// behind a bounds test, out-of-row ones contributing nothing.
func edge27(rows *[9][]float64, i int) float64 {
	sum := 27 * rows[4][i]
	for r, row := range rows {
		for di := -1; di <= 1; di++ {
			if (r == 4 && di == 0) || i+di < 0 || i+di >= len(row) {
				continue
			}
			sum -= row[i+di]
		}
	}
	return sum
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
		const tagDown, tagUp = 3, 4
		below, above, err := h.planes.exchange(r, h.Iter, h.P, h.plane(), tagDown, tagUp)
		if err != nil {
			return err
		}
		ap := fit(&h.ap, h.n())
		h.matvecInto(ap, h.P, below, above)
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
