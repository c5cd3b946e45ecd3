package apps

import (
	"math"

	"acr/internal/ampi"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// This file holds the two molecular-dynamics mini-apps of §6.1: LeanMD
// (message-driven, the cell/compute pattern of NAMD's short-range
// non-bonded force calculation) and miniMD (AMPI, mimicking LAMMPS's
// spatial decomposition). Both use a purely repulsive soft-sphere
// potential — bounded forces, so the explicit integrator stays stable and
// deterministic — and, per Table 2, a small checkpoint scattered across
// many per-atom objects (the layout that §6.2 blames for their relatively
// expensive serialization).

// Atom is one particle; each atom is pup'd as its own nested object,
// reproducing the scattered-checkpoint layout.
type Atom struct {
	X, Y   float64
	VX, VY float64
}

// Pup implements pup.Pupable.
func (a *Atom) Pup(p *pup.PUPer) {
	p.Float64(&a.X)
	p.Float64(&a.Y)
	p.Float64(&a.VX)
	p.Float64(&a.VY)
}

// pupAtoms pipes a []Atom with a length prefix.
func pupAtoms(p *pup.PUPer, atoms *[]Atom) {
	n := len(*atoms)
	p.Int(&n)
	if p.Mode() == pup.Unpacking && len(*atoms) != n {
		*atoms = make([]Atom, n)
	}
	for i := range *atoms {
		p.Object(&(*atoms)[i])
	}
}

// mdCutoff is the interaction radius and mdK the soft-sphere stiffness.
const (
	mdCutoff = 0.12
	mdK      = 40.0
	mdDt     = 5e-4
)

// softForce accumulates the repulsive force exerted on atom a by a
// neighbour at (x, y): f = k*(cutoff-r) along the separation, r < cutoff.
func softForce(ax, ay, bx, by float64) (fx, fy float64) {
	dx := ax - bx
	dy := ay - by
	r2 := dx*dx + dy*dy
	if r2 >= mdCutoff*mdCutoff || r2 == 0 {
		return 0, 0
	}
	r := math.Sqrt(r2)
	mag := mdK * (mdCutoff - r) / r
	return mag * dx, mag * dy
}

// posMsg ships a cell's atom positions to a neighbouring cell.
type posMsg struct {
	Iter   int
	XS, YS []float64
}

// mdScratch is the per-incarnation scratch of an MD task (DESIGN.md §18):
// not checkpointed, sized on first use. The outgoing position payloads are
// two deep for planeRing's reason — every neighbour sends its positions of
// it+1 only after it has finished computing forces against mine of it.
type mdScratch struct {
	xs, ys [2][]float64
	fx, fy []float64
}

// positions copies the atoms' positions into the ring slot of iteration it.
func (s *mdScratch) positions(it int, atoms []Atom) (xs, ys []float64) {
	xs, ys = fit(&s.xs[it&1], len(atoms)), fit(&s.ys[it&1], len(atoms))
	for i := range atoms {
		xs[i] = atoms[i].X
		ys[i] = atoms[i].Y
	}
	return xs, ys
}

// forces returns the zeroed force accumulators for n atoms.
func (s *mdScratch) forces(n int) (fx, fy []float64) {
	fx, fy = fit(&s.fx, n), fit(&s.fy, n)
	clear(fx)
	clear(fy)
	return fx, fy
}

// initAtoms places k atoms deterministically inside the unit cell at
// (cx, cy) of a gx*gy cell grid, with small deterministic velocities.
func initAtoms(k, cell, cx, cy, gx, gy int) []Atom {
	atoms := make([]Atom, k)
	for i := range atoms {
		// Low-discrepancy-ish deterministic placement.
		fx := math.Mod(float64(i)*0.618033988749895+0.13, 1.0)
		fy := math.Mod(float64(i)*0.754877666246693+0.29, 1.0)
		atoms[i] = Atom{
			X:  (float64(cx) + 0.1 + 0.8*fx) / float64(gx),
			Y:  (float64(cy) + 0.1 + 0.8*fy) / float64(gy),
			VX: 0.05 * math.Sin(float64(cell*7+i)),
			VY: 0.05 * math.Cos(float64(cell*11+i)),
		}
	}
	return atoms
}

// integrate advances atoms one step given accumulated forces, reflecting
// at the unit-box walls.
func integrate(atoms []Atom, fx, fy []float64) {
	for i := range atoms {
		a := &atoms[i]
		a.VX += mdDt * fx[i]
		a.VY += mdDt * fy[i]
		a.X += mdDt * a.VX
		a.Y += mdDt * a.VY
		if a.X < 0 {
			a.X, a.VX = -a.X, -a.VX
		}
		if a.X > 1 {
			a.X, a.VX = 2-a.X, -a.VX
		}
		if a.Y < 0 {
			a.Y, a.VY = -a.Y, -a.VY
		}
		if a.Y > 1 {
			a.Y, a.VY = 2-a.Y, -a.VY
		}
	}
}

// kinetic returns the kinetic energy of the atoms.
func kinetic(atoms []Atom) float64 {
	e := 0.0
	for i := range atoms {
		e += 0.5 * (atoms[i].VX*atoms[i].VX + atoms[i].VY*atoms[i].VY)
	}
	return e
}

// LeanMD is the message-driven MD app: one cell (patch) per task on a 2D
// cell grid; every iteration the cell ships its atom positions to its <= 8
// neighbours, computes short-range forces against its own and neighbour
// atoms, and integrates. Atoms stay bound to their home cell (a proxy
// simplification recorded in DESIGN.md — migration does not change the
// checkpoint/recovery behaviour ACR exercises).
// Every integration step moves every atom, and the per-atom nested-object
// layout is all scalars (no bulk arrays to splice), so the write tracking
// is an honest MarkAll each iteration — the capture path gets no chunk
// reuse here, matching §6.2's observation that the scattered layout makes
// this checkpoint expensive.
type LeanMD struct {
	pup.WriteSet
	Iter, Iters int
	K           int // atoms per cell
	Atoms       []Atom

	scratch mdScratch
}

// LeanMDAtoms is the default per-task atom count for live runs.
const LeanMDAtoms = 24

// LeanMDFactory builds LeanMD tasks with 24 atoms per cell.
func LeanMDFactory(iters int) runtime.Factory {
	return LeanMDFactorySized(iters, LeanMDAtoms)
}

// LeanMDFactorySized builds LeanMD tasks with an arbitrary per-cell atom
// count (the paper uses 4000 per core).
func LeanMDFactorySized(iters, atoms int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		return &LeanMD{Iters: iters, K: atoms}
	}
}

// Pup implements pup.Pupable.
func (m *LeanMD) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&m.Iter)
	p.Label("iters")
	p.Int(&m.Iters)
	p.Label("k")
	p.Int(&m.K)
	p.Label("atoms")
	pupAtoms(p, &m.Atoms)
}

// Run implements runtime.Program.
func (m *LeanMD) Run(ctx *runtime.Ctx) error {
	gx, gy := grid2(ctx.NumTasks())
	g := ctx.GlobalTask()
	cx, cy := g%gx, g/gx
	if m.Atoms == nil {
		m.Atoms = initAtoms(m.K, g, cx, cy, gx, gy)
	}
	var neighbours []int
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := cx+dx, cy+dy
			if nx >= 0 && nx < gx && ny >= 0 && ny < gy {
				neighbours = append(neighbours, ny*gx+nx)
			}
		}
	}

	var pending []runtime.Message
	got := make(map[int]posMsg, len(neighbours))
	want := make(map[runtime.Addr]int, len(neighbours))
	for _, nb := range neighbours {
		want[ctx.AddrOfGlobal(nb)] = nb
	}
	// recvAll fills got with every neighbour's positions of iteration iter.
	recvAll := func(iter int) error {
		clear(got)
		take := func(msg runtime.Message) bool {
			pm, ok := msg.Data.(posMsg)
			if !ok || pm.Iter != iter {
				return false
			}
			nb, ok := want[msg.From]
			if !ok {
				return false
			}
			if _, dup := got[nb]; dup {
				return false
			}
			got[nb] = pm
			return true
		}
		for i := 0; i < len(pending); {
			if take(pending[i]) {
				pending = append(pending[:i], pending[i+1:]...)
			} else {
				i++
			}
		}
		for len(got) < len(neighbours) {
			msg, err := ctx.Recv()
			if err != nil {
				return err
			}
			if !take(msg) {
				pending = append(pending, msg)
			}
		}
		return nil
	}

	for m.Iter < m.Iters {
		it := m.Iter
		xs, ys := m.scratch.positions(it, m.Atoms)
		for _, nb := range neighbours {
			if err := ctx.Send(ctx.AddrOfGlobal(nb), 0, posMsg{Iter: it, XS: xs, YS: ys}); err != nil {
				return err
			}
		}
		if err := recvAll(it); err != nil {
			return err
		}
		fx, fy := m.scratch.forces(len(m.Atoms))
		for i := range m.Atoms {
			a := &m.Atoms[i]
			for j := range m.Atoms {
				if i == j {
					continue
				}
				dfx, dfy := softForce(a.X, a.Y, m.Atoms[j].X, m.Atoms[j].Y)
				fx[i] += dfx
				fy[i] += dfy
			}
			// Deterministic neighbour order: ascending cell index.
			for _, nb := range neighbours {
				pm := got[nb]
				for j := range pm.XS {
					dfx, dfy := softForce(a.X, a.Y, pm.XS[j], pm.YS[j])
					fx[i] += dfx
					fy[i] += dfy
				}
			}
		}
		integrate(m.Atoms, fx, fy)
		m.Iter++
		m.MarkAll()
		if err := ctx.Progress(m.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// MiniMD is the AMPI MD app: a 1D spatial decomposition across ranks
// (columns of the unit box), halo exchange of atom positions with the left
// and right ranks via blocking Send/Recv, and a per-step Allreduce of the
// kinetic energy — the LAMMPS-style structure of the Mantevo original.
// Write-tracked like LeanMD: everything moves every step, so MarkAll.
type MiniMD struct {
	pup.WriteSet
	Iter, Iters int
	K           int
	Atoms       []Atom
	TotalKE     float64

	scratch mdScratch
}

// MiniMDAtoms is the default per-task atom count for live runs.
const MiniMDAtoms = 16

// MiniMDFactory builds miniMD tasks with 16 atoms per rank.
func MiniMDFactory(iters int) runtime.Factory {
	return MiniMDFactorySized(iters, MiniMDAtoms)
}

// MiniMDFactorySized builds miniMD tasks with an arbitrary per-rank atom
// count (the paper uses 1000 per core).
func MiniMDFactorySized(iters, atoms int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		return &MiniMD{Iters: iters, K: atoms}
	}
}

// Pup implements pup.Pupable.
func (m *MiniMD) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&m.Iter)
	p.Label("iters")
	p.Int(&m.Iters)
	p.Label("k")
	p.Int(&m.K)
	p.Label("atoms")
	pupAtoms(p, &m.Atoms)
	p.Label("totalke")
	p.Float64(&m.TotalKE)
}

// Run implements runtime.Program.
func (m *MiniMD) Run(ctx *runtime.Ctx) error {
	r := ampi.New(ctx)
	rank, size := r.Rank(), r.Size()
	if m.Atoms == nil {
		m.Atoms = initAtoms(m.K, rank, rank, 0, size, 1)
	}
	const tagLeft, tagRight = 5, 6
	for m.Iter < m.Iters {
		xs, ys := m.scratch.positions(m.Iter, m.Atoms)
		payload := posMsg{Iter: m.Iter, XS: xs, YS: ys}
		var left, right posMsg
		if rank > 0 {
			if err := r.Send(rank-1, tagLeft, payload); err != nil {
				return err
			}
		}
		if rank < size-1 {
			if err := r.Send(rank+1, tagRight, payload); err != nil {
				return err
			}
		}
		if rank > 0 {
			d, _, err := r.Recv(rank-1, tagRight)
			if err != nil {
				return err
			}
			left = d.(posMsg)
		}
		if rank < size-1 {
			d, _, err := r.Recv(rank+1, tagLeft)
			if err != nil {
				return err
			}
			right = d.(posMsg)
		}
		fx, fy := m.scratch.forces(len(m.Atoms))
		for i := range m.Atoms {
			a := &m.Atoms[i]
			for j := range m.Atoms {
				if i == j {
					continue
				}
				dfx, dfy := softForce(a.X, a.Y, m.Atoms[j].X, m.Atoms[j].Y)
				fx[i] += dfx
				fy[i] += dfy
			}
			for j := range left.XS {
				dfx, dfy := softForce(a.X, a.Y, left.XS[j], left.YS[j])
				fx[i] += dfx
				fy[i] += dfy
			}
			for j := range right.XS {
				dfx, dfy := softForce(a.X, a.Y, right.XS[j], right.YS[j])
				fx[i] += dfx
				fy[i] += dfy
			}
		}
		integrate(m.Atoms, fx, fy)
		ke, err := r.Allreduce(ampi.Sum, kinetic(m.Atoms))
		if err != nil {
			return err
		}
		m.TotalKE = ke
		m.Iter++
		m.MarkAll()
		if err := r.Progress(m.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}
