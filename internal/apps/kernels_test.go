package apps

import (
	"math"
	"testing"

	"acr/internal/runtime"
)

// This file validates the numerical kernels against independent
// references, separately from the distributed machinery: the distributed
// runs must equal a serial re-computation of the same mathematics.

// serialJacobi runs the global 7-point relaxation on the full grid.
func serialJacobi(px, py, pz, bx, by, bz, iters int) []float64 {
	nx, ny, nz := px*bx, py*by, pz*bz
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	u := make([]float64, nx*ny*nz)
	// Initialization matches jacobiInit per task-local cell index.
	for g := 0; g < px*py*pz; g++ {
		gx, gy, gz := g%px, (g/px)%py, g/(px*py)
		for c := 0; c < bx*by*bz; c++ {
			ci := c % bx
			ck := (c / bx) % by
			cl := c / (bx * by)
			u[idx(gx*bx+ci, gy*by+ck, gz*bz+cl)] = jacobiInit(g, c)
		}
	}
	at := func(v []float64, x, y, z int) float64 {
		if x < 0 || x >= nx || y < 0 || y >= ny || z < 0 || z >= nz {
			return 0
		}
		return v[idx(x, y, z)]
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, len(u))
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					next[idx(x, y, z)] = (at(u, x, y, z) +
						at(u, x-1, y, z) + at(u, x+1, y, z) +
						at(u, x, y-1, z) + at(u, x, y+1, z) +
						at(u, x, y, z-1) + at(u, x, y, z+1)) / 7
				}
			}
		}
		u = next
	}
	return u
}

// TestJacobiMatchesSerialReference: the distributed message-driven stencil
// equals the serial sweep bit for bit.
func TestJacobiMatchesSerialReference(t *testing.T) {
	const iters = 15
	// 1 node x 8 tasks -> grid3(8) = 2x2x2 task grid of 4^3 blocks.
	states := runClean(t, JacobiFactorySized(iters, 4, 4, 4), 1, 8)
	px, py, pz := grid3(8)
	ref := serialJacobi(px, py, pz, 4, 4, 4, iters)
	nx, ny := px*4, py*4
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	progs := unpackAll(t, states, func() *Jacobi { return &Jacobi{} })
	for g, p := range progs {
		gx, gy, gz := g%px, (g/px)%py, g/(px*py)
		for c, v := range p.U {
			ci := c % 4
			ck := (c / 4) % 4
			cl := c / 16
			want := ref[idx(gx*4+ci, gy*4+ck, gz*4+cl)]
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("task %d cell %d: %v != serial %v", g, c, v, want)
			}
		}
	}
}

// serialMatvec27 applies the HPCCG operator (diag 27, in-bounds neighbours
// -1) on the full 3D grid.
func serialMatvec27(v []float64, nx, ny, nz int) []float64 {
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	at := func(x, y, z int) float64 {
		if x < 0 || x >= nx || y < 0 || y >= ny || z < 0 || z >= nz {
			return 0
		}
		return v[idx(x, y, z)]
	}
	y := make([]float64, len(v))
	for z := 0; z < nz; z++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				sum := 27 * v[idx(i, j, z)]
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							sum -= at(i+dx, j+dy, z+dz)
						}
					}
				}
				y[idx(i, j, z)] = sum
			}
		}
	}
	return y
}

// matvec is matvecInto into a fresh vector.
func (h *HPCCG) matvec(v, below, above []float64) []float64 {
	y := make([]float64, h.n())
	h.matvecInto(y, v, below, above)
	return y
}

// TestHPCCGMatvecMatchesSerial: the slab-distributed matvec with halo
// planes equals the serial 27-point operator bit for bit.
func TestHPCCGMatvecMatchesSerial(t *testing.T) {
	const nx, ny, nz = 5, 4, 3 // per-rank slab; 2 ranks stacked in Z
	h0 := &HPCCG{NX: nx, NY: ny, NZ: nz}
	h1 := &HPCCG{NX: nx, NY: ny, NZ: nz}
	// Build a deterministic global vector split across two slabs.
	global := make([]float64, nx*ny*2*nz)
	for i := range global {
		global[i] = math.Sin(float64(i) * 0.3)
	}
	v0 := global[:nx*ny*nz]
	v1 := global[nx*ny*nz:]
	// Halo planes: top plane of v0 and bottom plane of v1.
	plane := nx * ny
	below1 := v0[len(v0)-plane:]
	above0 := v1[:plane]
	y0 := h0.matvec(v0, nil, above0)
	y1 := h1.matvec(v1, below1, nil)
	ref := serialMatvec27(global, nx, ny, 2*nz)
	for i := range y0 {
		if math.Float64bits(y0[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("slab 0 element %d: %v != %v", i, y0[i], ref[i])
		}
	}
	for i := range y1 {
		if math.Float64bits(y1[i]) != math.Float64bits(ref[nx*ny*nz+i]) {
			t.Fatalf("slab 1 element %d: %v != %v", i, y1[i], ref[nx*ny*nz+i])
		}
	}
}

// TestHPCCGOperatorSymmetryAndDefiniteness: CG requires a symmetric
// positive-definite operator; verify <Av, w> == <v, Aw> and <Av, v> > 0 on
// random-ish vectors (single slab, so matvec has no halos).
func TestHPCCGOperatorSymmetryAndDefiniteness(t *testing.T) {
	h := &HPCCG{NX: 4, NY: 4, NZ: 4}
	n := 64
	v := make([]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		v[i] = math.Sin(float64(i) * 1.1)
		w[i] = math.Cos(float64(i) * 0.7)
	}
	av := h.matvec(v, nil, nil)
	aw := h.matvec(w, nil, nil)
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	if math.Abs(dot(av, w)-dot(v, aw)) > 1e-9 {
		t.Fatalf("operator not symmetric: %v vs %v", dot(av, w), dot(v, aw))
	}
	if dot(av, v) <= 0 {
		t.Fatalf("operator not positive definite: %v", dot(av, v))
	}
}

// TestJacobiFaceVals: extracted faces land in the documented order.
func TestJacobiFaceVals(t *testing.T) {
	j := &Jacobi{BX: 2, BY: 3, BZ: 4}
	j.U = make([]float64, 2*3*4)
	for i := range j.U {
		j.U[i] = float64(i)
	}
	// -X face: values at i=0, laid out k fastest then l.
	face := j.faceVals(0)
	if len(face) != 3*4 {
		t.Fatalf("X face size %d", len(face))
	}
	for l := 0; l < 4; l++ {
		for k := 0; k < 3; k++ {
			if face[l*3+k] != j.U[j.idx(0, k, l)] {
				t.Fatal("-X face layout wrong")
			}
		}
	}
	// +Z face: values at l=3, i fastest then k.
	face = j.faceVals(5)
	if len(face) != 2*3 {
		t.Fatalf("Z face size %d", len(face))
	}
	for k := 0; k < 3; k++ {
		for i := 0; i < 2; i++ {
			if face[k*2+i] != j.U[j.idx(i, k, 3)] {
				t.Fatal("+Z face layout wrong")
			}
		}
	}
}

// TestLuleshSetup: the Sod initialization is mass-uniform with the energy
// jump at the global midpoint, and node positions tile [0,1].
func TestLuleshSetup(t *testing.T) {
	const tasks = 4
	states := runClean(t, LuleshFactorySized(0, 8), 1, tasks)
	progs := unpackAll(t, states, func() *Lulesh { return &Lulesh{} })
	total := tasks * 8
	dx := 1.0 / float64(total)
	for g, p := range progs {
		for e := 0; e < p.E; e++ {
			ge := g*p.E + e
			if math.Abs(p.Mass[e]-dx) > 1e-15 {
				t.Fatalf("element %d mass %v, want %v", ge, p.Mass[e], dx)
			}
			wantE := 0.25 * dx
			if ge < total/2 {
				wantE = 2.5 * dx
			}
			if math.Abs(p.Energy[e]-wantE) > 1e-15 {
				t.Fatalf("element %d energy %v, want %v", ge, p.Energy[e], wantE)
			}
		}
		for i := 0; i <= p.E; i++ {
			want := float64(g*p.E+i) * dx
			if math.Abs(p.Pos[i]-want) > 1e-15 {
				t.Fatalf("node %d pos %v, want %v", i, p.Pos[i], want)
			}
		}
	}
	// Initial pressures: ratio 10 across the diaphragm (Sod).
	left := progs[0].pressure(0)
	right := progs[tasks-1].pressure(7)
	if r := left / right; math.Abs(r-10) > 1e-9 {
		t.Fatalf("pressure ratio %v, want 10", r)
	}
}

// TestMDIntegrateReflections: wall reflection preserves speed and flips
// velocity.
func TestMDIntegrateReflections(t *testing.T) {
	atoms := []Atom{{X: 0.9995, Y: 0.5, VX: 10, VY: 0}}
	integrate(atoms, []float64{0}, []float64{0})
	if atoms[0].X > 1 || atoms[0].VX >= 0 {
		t.Fatalf("right-wall reflection broken: %+v", atoms[0])
	}
	if math.Abs(atoms[0].VX) != 10 {
		t.Fatalf("reflection should preserve speed: %+v", atoms[0])
	}
	atoms = []Atom{{X: 0.0005, Y: 0.5, VX: -10, VY: 0}}
	integrate(atoms, []float64{0}, []float64{0})
	if atoms[0].X < 0 || atoms[0].VX <= 0 {
		t.Fatalf("left-wall reflection broken: %+v", atoms[0])
	}
}

// TestMDMomentumConservation: with no walls hit, pairwise forces conserve
// momentum over a step (Newton's third law at the system level).
func TestMDMomentumConservation(t *testing.T) {
	atoms := []Atom{
		{X: 0.5, Y: 0.5, VX: 0.01, VY: 0},
		{X: 0.55, Y: 0.52, VX: -0.01, VY: 0.02},
		{X: 0.48, Y: 0.55, VX: 0, VY: -0.02},
	}
	px0, py0 := 0.0, 0.0
	for _, a := range atoms {
		px0 += a.VX
		py0 += a.VY
	}
	fx := make([]float64, len(atoms))
	fy := make([]float64, len(atoms))
	for i := range atoms {
		for j := range atoms {
			if i == j {
				continue
			}
			dfx, dfy := softForce(atoms[i].X, atoms[i].Y, atoms[j].X, atoms[j].Y)
			fx[i] += dfx
			fy[i] += dfy
		}
	}
	integrate(atoms, fx, fy)
	px1, py1 := 0.0, 0.0
	for _, a := range atoms {
		px1 += a.VX
		py1 += a.VY
	}
	if math.Abs(px1-px0) > 1e-14 || math.Abs(py1-py0) > 1e-14 {
		t.Fatalf("momentum drifted: (%v,%v) -> (%v,%v)", px0, py0, px1, py1)
	}
}

// TestSizedFactoriesProduceConfiguredShapes confirms the sized variants
// carry their parameters through checkpoints.
func TestSizedFactoriesProduceConfiguredShapes(t *testing.T) {
	j := JacobiFactorySized(1, 3, 4, 5)(runtime.Addr{}).(*Jacobi)
	if j.BX != 3 || j.BY != 4 || j.BZ != 5 {
		t.Fatal("Jacobi sized factory wrong")
	}
	h := HPCCGFactorySized(1, 2, 3, 4)(runtime.Addr{}).(*HPCCG)
	if h.NX != 2 || h.NY != 3 || h.NZ != 4 {
		t.Fatal("HPCCG sized factory wrong")
	}
	l := LuleshFactorySized(1, 9)(runtime.Addr{}).(*Lulesh)
	if l.E != 9 {
		t.Fatal("Lulesh sized factory wrong")
	}
	lm := LeanMDFactorySized(1, 7)(runtime.Addr{}).(*LeanMD)
	if lm.K != 7 {
		t.Fatal("LeanMD sized factory wrong")
	}
	mm := MiniMDFactorySized(1, 5)(runtime.Addr{}).(*MiniMD)
	if mm.K != 5 {
		t.Fatal("miniMD sized factory wrong")
	}
}
