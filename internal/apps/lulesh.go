package apps

import (
	"acr/internal/pup"
	"acr/internal/runtime"
)

// Lulesh is a Lagrangian explicit shock-hydrodynamics proxy standing in for
// LULESH (§6.1). It solves a 1D Sod shock tube on a staggered Lagrangian
// mesh: element-centred energy/mass/pressure, node-centred position and
// velocity, and the two-stage element->node->element update pattern that
// gives LULESH its layered data structures (the paper notes LULESH's
// serialization is the most expensive of the mini-apps for this reason).
// DESIGN.md records the substitution: the 3D unstructured hexahedral mesh
// becomes a 1D staggered mesh with identical communication structure
// (element pressures one way, nodal kinematics the other) and the same
// staged update and checkpoint shape (many distinct fields).
//
// Each task owns E elements and the E nodes on their left; the global
// right wall is owned by the last task. Boundary conditions are rigid
// walls (v = 0).
//
// Write-tracked, and the one port whose honest dirty set is a strict subset
// of its bulk state: a sweep rewrites Pos, Vel, Energy and the iteration
// counter, while NodeMass and Mass — two of the five checkpointed arrays —
// are written only in setup and splice from the previous checkpoint.
type Lulesh struct {
	pup.WriteSet
	Iter, Iters int
	E           int // elements per task
	Dt          float64
	Gamma       float64
	// Node-centred (E+1 entries: E owned + right ghost; the global last
	// task owns its right wall node).
	Pos, Vel, NodeMass []float64
	// Element-centred (E entries).
	Energy, Mass []float64
	Init         bool

	press []float64 // per-sweep element pressures: scratch, not checkpointed
}

// LuleshElems is the default per-task element count for live runs.
const LuleshElems = 16

// LuleshFactory builds shock-hydro tasks with 16 elements each.
func LuleshFactory(iters int) runtime.Factory {
	return LuleshFactorySized(iters, LuleshElems)
}

// LuleshFactorySized builds shock-hydro tasks with an arbitrary element
// count per task.
func LuleshFactorySized(iters, elems int) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		return &Lulesh{Iters: iters, E: elems, Dt: 1e-3, Gamma: 1.4}
	}
}

// Pup implements pup.Pupable.
func (l *Lulesh) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&l.Iter)
	p.Label("iters")
	p.Int(&l.Iters)
	p.Label("e")
	p.Int(&l.E)
	p.Label("dt")
	p.Float64(&l.Dt)
	p.Label("gamma")
	p.Float64(&l.Gamma)
	p.Label("pos")
	p.Float64s(&l.Pos)
	p.Label("vel")
	p.Float64s(&l.Vel)
	p.Label("nodemass")
	p.Float64s(&l.NodeMass)
	p.Label("energy")
	p.Float64s(&l.Energy)
	p.Label("mass")
	p.Float64s(&l.Mass)
	p.Label("init")
	p.Bool(&l.Init)
}

// hydroMsg carries the per-iteration halo data between neighbouring tasks.
type hydroMsg struct {
	Iter  int
	Phase int // 0: pressure (rightward), 1: node kinematics (leftward)
	A, B  float64
}

func (l *Lulesh) setup(g, n int) {
	total := n * l.E
	l.Pos = make([]float64, l.E+1)
	l.Vel = make([]float64, l.E+1)
	l.NodeMass = make([]float64, l.E+1)
	l.Energy = make([]float64, l.E)
	l.Mass = make([]float64, l.E)
	dx := 1.0 / float64(total)
	for i := 0; i <= l.E; i++ {
		l.Pos[i] = float64(g*l.E+i) * dx
	}
	for e := 0; e < l.E; e++ {
		ge := g*l.E + e
		// Sod tube: density 1 everywhere, high energy on the left half.
		l.Mass[e] = dx
		if ge < total/2 {
			l.Energy[e] = 2.5 * dx // p = 1.0 at gamma = 1.4
		} else {
			l.Energy[e] = 0.25 * dx // p = 0.1
		}
	}
	for i := 0; i <= l.E; i++ {
		l.NodeMass[i] = dx
	}
	l.Init = true
}

// pressure returns element e's pressure from the ideal-gas EOS.
func (l *Lulesh) pressure(e int) float64 {
	vol := l.Pos[e+1] - l.Pos[e]
	if vol <= 0 {
		vol = 1e-12
	}
	rho := l.Mass[e] / vol
	return (l.Gamma - 1) * rho * (l.Energy[e] / l.Mass[e])
}

// Run implements runtime.Program.
func (l *Lulesh) Run(ctx *runtime.Ctx) error {
	g := ctx.GlobalTask()
	n := ctx.NumTasks()
	if !l.Init {
		l.setup(g, n)
	}
	// The layout is fixed once setup has sized the arrays.
	spans := pup.FieldSpans(l)
	written := []pup.Range{spans["pos"], spans["vel"], spans["energy"], spans["iter"]}
	p := fit(&l.press, l.E)
	var pending []runtime.Message
	recvPhase := func(iter, phase, fromTask int) (hydroMsg, error) {
		match := func(m runtime.Message) (hydroMsg, bool) {
			h, ok := m.Data.(hydroMsg)
			if !ok || h.Iter != iter || h.Phase != phase || m.From != ctx.AddrOfGlobal(fromTask) {
				return hydroMsg{}, false
			}
			return h, true
		}
		for i, m := range pending {
			if h, ok := match(m); ok {
				pending = append(pending[:i], pending[i+1:]...)
				return h, nil
			}
		}
		for {
			m, err := ctx.Recv()
			if err != nil {
				return hydroMsg{}, err
			}
			if h, ok := match(m); ok {
				return h, nil
			}
			pending = append(pending, m)
		}
	}

	for l.Iter < l.Iters {
		it := l.Iter
		// Stage 1: element pressures; ship my last element's pressure to
		// the right neighbour (it needs it for its node 0 force).
		for e := 0; e < l.E; e++ {
			p[e] = l.pressure(e)
		}
		if g < n-1 {
			if err := ctx.Send(ctx.AddrOfGlobal(g+1), 0, hydroMsg{Iter: it, Phase: 0, A: p[l.E-1]}); err != nil {
				return err
			}
		}
		leftP := 0.0
		haveLeft := g > 0
		if haveLeft {
			h, err := recvPhase(it, 0, g-1)
			if err != nil {
				return err
			}
			leftP = h.A
		}
		// Stage 2: nodal forces and kinematics for owned nodes 0..E-1.
		// f_i = p_left(i) - p_right(i).
		for i := 0; i < l.E; i++ {
			var pl, pr float64
			if i == 0 {
				if haveLeft {
					pl = leftP
				} else {
					pl = p[0] // rigid wall: mirror pressure, v stays 0
				}
			} else {
				pl = p[i-1]
			}
			pr = p[i]
			acc := (pl - pr) / l.NodeMass[i]
			l.Vel[i] += l.Dt * acc
		}
		if g == 0 {
			l.Vel[0] = 0 // left wall
		}
		if g == n-1 {
			l.Vel[l.E] = 0 // right wall is owned by the last task
		}
		// Stage 3: exchange updated node-0 kinematics leftward so the
		// left neighbour can move its right ghost node.
		if g > 0 {
			if err := ctx.Send(ctx.AddrOfGlobal(g-1), 0, hydroMsg{Iter: it, Phase: 1, A: l.Vel[0], B: l.Pos[0]}); err != nil {
				return err
			}
		}
		if g < n-1 {
			h, err := recvPhase(it, 1, g+1)
			if err != nil {
				return err
			}
			l.Vel[l.E] = h.A
			l.Pos[l.E] = h.B
		}
		// Stage 4: move owned nodes, then the ghost moves identically on
		// its owner; positions advance with the updated velocities.
		limit := l.E
		if g == n-1 {
			limit = l.E + 1
		}
		for i := 0; i < limit; i++ {
			l.Pos[i] += l.Dt * l.Vel[i]
		}
		if g < n-1 {
			l.Pos[l.E] += l.Dt * l.Vel[l.E]
		}
		// Stage 5: element energy update (pdV work).
		for e := 0; e < l.E; e++ {
			dv := l.Vel[e+1] - l.Vel[e]
			l.Energy[e] -= l.Dt * p[e] * dv
		}
		l.Iter++
		for _, span := range written {
			l.MarkSpan(span)
		}
		if err := ctx.Progress(l.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}
