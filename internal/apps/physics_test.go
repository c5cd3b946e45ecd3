package apps

import (
	"math"
	"testing"

	"acr/internal/pup"
	"acr/internal/runtime"
)

// unpackAll decodes the packed task states into fresh programs.
func unpackAll[T pup.Pupable](t *testing.T, states [][]byte, mk func() T) []T {
	t.Helper()
	out := make([]T, len(states))
	for i, data := range states {
		p := mk()
		if err := pup.Unpack(data, p); err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func TestJacobiConvergesTowardZero(t *testing.T) {
	// With zero boundaries the relaxation contracts the field.
	short := unpackAll(t, runClean(t, JacobiFactory(2), 2, 2), func() *Jacobi { return &Jacobi{} })
	long := unpackAll(t, runClean(t, JacobiFactory(60), 2, 2), func() *Jacobi { return &Jacobi{} })
	var nShort, nLong float64
	for i := range short {
		nShort += short[i].Norm()
		nLong += long[i].Norm()
	}
	if nLong >= nShort*0.8 {
		t.Fatalf("relaxation not contracting: %v -> %v", nShort, nLong)
	}
	if nLong <= 0 || math.IsNaN(nLong) {
		t.Fatalf("degenerate field norm %v", nLong)
	}
}

func TestJacobiAMPIMatchesResidualMonotone(t *testing.T) {
	progs := unpackAll(t, runClean(t, JacobiAMPIFactory(40), 2, 2), func() *JacobiAMPI { return &JacobiAMPI{} })
	// All ranks agree on the global residual (it came from Allreduce).
	res := progs[0].Residual
	for _, p := range progs {
		if p.Residual != res {
			t.Fatalf("ranks disagree on residual: %v vs %v", p.Residual, res)
		}
	}
	early := unpackAll(t, runClean(t, JacobiAMPIFactory(5), 2, 2), func() *JacobiAMPI { return &JacobiAMPI{} })
	if res >= early[0].Residual {
		t.Fatalf("residual should decrease: %v -> %v", early[0].Residual, res)
	}
}

func TestHPCCGConvergesToOnes(t *testing.T) {
	// CG on the diagonally dominant 27-point operator converges fast;
	// after 25 iterations the solution must be all-ones to good accuracy.
	progs := unpackAll(t, runClean(t, HPCCGFactory(25), 2, 2), func() *HPCCG { return &HPCCG{} })
	for i, p := range progs {
		if e := p.SolutionError(); e > 1e-6 {
			t.Fatalf("rank %d solution error %v, want < 1e-6", i, e)
		}
	}
	if progs[0].ResidualNorm() > 1e-5 {
		t.Fatalf("residual %v did not converge", progs[0].ResidualNorm())
	}
}

func TestHPCCGResidualDecreases(t *testing.T) {
	r5 := unpackAll(t, runClean(t, HPCCGFactory(5), 1, 2), func() *HPCCG { return &HPCCG{} })
	r15 := unpackAll(t, runClean(t, HPCCGFactory(15), 1, 2), func() *HPCCG { return &HPCCG{} })
	if r15[0].ResidualNorm() >= r5[0].ResidualNorm() {
		t.Fatalf("residual not decreasing: %v -> %v", r5[0].ResidualNorm(), r15[0].ResidualNorm())
	}
}

func TestLuleshShockPhysics(t *testing.T) {
	const iters = 200
	progs := unpackAll(t, runClean(t, LuleshFactory(iters), 2, 2), func() *Lulesh { return &Lulesh{} })
	n := len(progs)
	// 1) The discontinuity launches a wave: some nodes must be moving.
	maxV := 0.0
	for _, p := range progs {
		if v := p.MaxVel(); v > maxV {
			maxV = v
		}
	}
	if maxV < 1e-3 {
		t.Fatalf("no shock developed: max velocity %v", maxV)
	}
	// 2) Total energy is approximately conserved by the staggered update.
	totalAfter := 0.0
	for i, p := range progs {
		totalAfter += p.TotalEnergy(i == n-1)
	}
	initial := unpackAll(t, runClean(t, LuleshFactory(0), 2, 2), func() *Lulesh { return &Lulesh{} })
	totalBefore := 0.0
	for i, p := range initial {
		totalBefore += p.TotalEnergy(i == n-1)
	}
	if rel := math.Abs(totalAfter-totalBefore) / totalBefore; rel > 0.02 {
		t.Fatalf("energy drifted %.2f%% (from %v to %v)", rel*100, totalBefore, totalAfter)
	}
	// 3) Mesh stays untangled: positions strictly increasing per task.
	for _, p := range progs {
		for i := 0; i < p.E; i++ {
			if p.Pos[i+1] <= p.Pos[i] {
				t.Fatalf("mesh tangled at node %d", i)
			}
		}
	}
}

func TestMDStability(t *testing.T) {
	progs := unpackAll(t, runClean(t, LeanMDFactory(100), 2, 2), func() *LeanMD { return &LeanMD{} })
	for _, p := range progs {
		for _, a := range p.Atoms {
			if a.X < -0.01 || a.X > 1.01 || a.Y < -0.01 || a.Y > 1.01 {
				t.Fatalf("atom escaped the box: %+v", a)
			}
			if math.IsNaN(a.X) || math.IsNaN(a.VX) {
				t.Fatal("NaN in MD state")
			}
		}
		if ke := p.KineticEnergy(); ke > 100 {
			t.Fatalf("kinetic energy blew up: %v", ke)
		}
	}
}

func TestMiniMDGlobalKineticEnergyAgrees(t *testing.T) {
	progs := unpackAll(t, runClean(t, MiniMDFactory(50), 2, 2), func() *MiniMD { return &MiniMD{} })
	ke := progs[0].TotalKE
	if ke <= 0 || math.IsNaN(ke) {
		t.Fatalf("bad global KE %v", ke)
	}
	sum := 0.0
	for _, p := range progs {
		if p.TotalKE != ke {
			t.Fatalf("ranks disagree on global KE")
		}
		sum += kinetic(p.Atoms)
	}
	if math.Abs(sum-ke)/ke > 1e-9 {
		t.Fatalf("allreduced KE %v != local sum %v", ke, sum)
	}
}

func TestAtomPupRoundTrip(t *testing.T) {
	a := Atom{X: 0.5, Y: 0.25, VX: -1, VY: 2}
	data, err := pup.Pack(&a)
	if err != nil {
		t.Fatal(err)
	}
	var b Atom
	if err := pup.Unpack(data, &b); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("round trip: %+v vs %+v", a, b)
	}
}

func TestSoftForceProperties(t *testing.T) {
	// Beyond cutoff: zero.
	if fx, fy := softForce(0, 0, mdCutoff*2, 0); fx != 0 || fy != 0 {
		t.Fatal("force beyond cutoff")
	}
	// Repulsive: force on a points away from b.
	fx, _ := softForce(0.1, 0, 0.05, 0)
	if fx <= 0 {
		t.Fatal("force not repulsive")
	}
	// Newton's third law.
	f1x, f1y := softForce(0.1, 0.2, 0.15, 0.22)
	f2x, f2y := softForce(0.15, 0.22, 0.1, 0.2)
	if math.Abs(f1x+f2x) > 1e-12 || math.Abs(f1y+f2y) > 1e-12 {
		t.Fatal("forces not antisymmetric")
	}
	// Coincident atoms do not produce NaN.
	if fx, fy := softForce(0.3, 0.3, 0.3, 0.3); fx != 0 || fy != 0 {
		t.Fatal("self force")
	}
}

func TestInitAtomsInsideCell(t *testing.T) {
	atoms := initAtoms(50, 3, 1, 2, 4, 4)
	for _, a := range atoms {
		if a.X < 0.25 || a.X > 0.5 || a.Y < 0.5 || a.Y > 0.75 {
			t.Fatalf("atom outside its cell: %+v", a)
		}
	}
}

func TestRowNeighbors(t *testing.T) {
	// Interior cell: 26 neighbours; corner: 7.
	if n := rowNeighbors(1, 1, 1, 4, 4, 4); n != 26 {
		t.Fatalf("interior neighbours = %d, want 26", n)
	}
	if n := rowNeighbors(0, 0, 0, 4, 4, 4); n != 7 {
		t.Fatalf("corner neighbours = %d, want 7", n)
	}
}

var _ runtime.Program = (*Jacobi)(nil)
var _ runtime.Program = (*JacobiAMPI)(nil)
var _ runtime.Program = (*HPCCG)(nil)
var _ runtime.Program = (*Lulesh)(nil)
var _ runtime.Program = (*LeanMD)(nil)
var _ runtime.Program = (*MiniMD)(nil)

// The apps' integrity probes: only these tests read a norm or an energy
// off a finished task.

// Norm returns the L1 norm of the block (a cheap integrity probe for
// tests).
func (j *Jacobi) Norm() float64 {
	s := 0.0
	for _, v := range j.U {
		s += math.Abs(v)
	}
	return s
}

// Norm returns the L1 norm of the slab.
func (j *JacobiAMPI) Norm() float64 {
	s := 0.0
	for _, v := range j.U {
		s += math.Abs(v)
	}
	return s
}

// TotalEnergy returns the task's internal plus kinetic energy (nodes
// 0..E-1; the global last task adds its wall node).
func (l *Lulesh) TotalEnergy(lastTask bool) float64 {
	e := 0.0
	for i := range l.Energy {
		e += l.Energy[i]
	}
	limit := l.E
	if lastTask {
		limit = l.E + 1
	}
	for i := 0; i < limit; i++ {
		e += 0.5 * l.NodeMass[i] * l.Vel[i] * l.Vel[i]
	}
	return e
}

// MaxVel returns the task's maximum absolute nodal velocity.
func (l *Lulesh) MaxVel() float64 {
	m := 0.0
	for _, v := range l.Vel {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// KineticEnergy returns the cell's kinetic energy.
func (m *LeanMD) KineticEnergy() float64 { return kinetic(m.Atoms) }
