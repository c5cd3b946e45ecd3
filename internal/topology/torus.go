// Package topology models the 3D-torus interconnect of a Blue Gene/P-class
// machine: node coordinates, the default TXYZ rank order, dimension-ordered
// routing, replica-to-node mapping schemes (default, column, mixed), and
// per-link load accounting for inter-replica checkpoint traffic.
//
// The paper's Figure 6 and the transfer-time components of Figures 8 and 10
// are determined entirely by this package: the load on the most congested
// link under a given mapping sets the checkpoint-exchange time.
package topology

import "fmt"

// Coord is a node coordinate on the torus.
type Coord struct {
	X, Y, Z int
}

// Torus is a 3D torus with the given dimensions. Links are bidirectional;
// each direction is a separate channel (as on BG/P).
type Torus struct {
	DX, DY, DZ int
}

// NewTorus returns a torus with the given dimensions. All dimensions must be
// positive.
func NewTorus(dx, dy, dz int) (Torus, error) {
	if dx <= 0 || dy <= 0 || dz <= 0 {
		return Torus{}, fmt.Errorf("topology: invalid torus dimensions %dx%dx%d", dx, dy, dz)
	}
	return Torus{DX: dx, DY: dy, DZ: dz}, nil
}

// Nodes returns the total number of nodes.
func (t Torus) Nodes() int { return t.DX * t.DY * t.DZ }

// RankOf returns the TXYZ-order rank of a coordinate: X varies fastest and Z
// slowest, matching the BG/P default mapping in which "ranks increase
// slowest along the Z dimension" (§4.2).
func (t Torus) RankOf(c Coord) int {
	return c.X + c.Y*t.DX + c.Z*t.DX*t.DY
}

// CoordOf is the inverse of RankOf.
func (t Torus) CoordOf(rank int) Coord {
	x := rank % t.DX
	y := (rank / t.DX) % t.DY
	z := rank / (t.DX * t.DY)
	return Coord{X: x, Y: y, Z: z}
}

// Dim identifies a torus dimension.
type Dim int

// Torus dimensions.
const (
	DimX Dim = iota
	DimY
	DimZ
)

func (d Dim) String() string {
	switch d {
	case DimX:
		return "X"
	case DimY:
		return "Y"
	case DimZ:
		return "Z"
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// Link identifies one directional torus link: the channel leaving node From
// along dimension Dim in direction Dir (+1 or -1).
type Link struct {
	From Coord
	Dim  Dim
	Dir  int
}

// LinkIndex returns a dense index for the link, suitable for slice-based
// load accounting. There are Nodes()*6 directional links.
func (t Torus) LinkIndex(l Link) int {
	dir := 0
	if l.Dir > 0 {
		dir = 1
	}
	return (t.RankOf(l.From)*3+int(l.Dim))*2 + dir
}

// NumLinks returns the number of directional links on the torus.
func (t Torus) NumLinks() int { return t.Nodes() * 6 }

// hopsAndDir returns the number of hops and the travel direction (+1/-1)
// along one dimension of extent d, from a to b, taking the shorter way
// around the torus. Ties choose the positive direction.
func hopsAndDir(a, b, d int) (hops, dir int) {
	if a == b {
		return 0, 1
	}
	fwd := ((b-a)%d + d) % d
	bwd := d - fwd
	if fwd <= bwd {
		return fwd, 1
	}
	return bwd, -1
}

// Distance returns the shortest-path hop count between two nodes.
func (t Torus) Distance(a, b Coord) int {
	hx, _ := hopsAndDir(a.X, b.X, t.DX)
	hy, _ := hopsAndDir(a.Y, b.Y, t.DY)
	hz, _ := hopsAndDir(a.Z, b.Z, t.DZ)
	return hx + hy + hz
}

// Route returns the sequence of directional links traversed from a to b
// under deterministic dimension-ordered (X, then Y, then Z) minimal routing,
// the scheme used by BG/P. Ties between torus directions go positive.
func (t Torus) Route(a, b Coord) []Link {
	var links []Link
	cur := a
	step := func(dim Dim, cur *int, target, extent int, mk func(int) Coord) {
		hops, dir := hopsAndDir(*cur, target, extent)
		for i := 0; i < hops; i++ {
			links = append(links, Link{From: mk(*cur), Dim: dim, Dir: dir})
			*cur = ((*cur+dir)%extent + extent) % extent
		}
	}
	step(DimX, &cur.X, b.X, t.DX, func(x int) Coord { return Coord{x, cur.Y, cur.Z} })
	step(DimY, &cur.Y, b.Y, t.DY, func(y int) Coord { return Coord{cur.X, y, cur.Z} })
	step(DimZ, &cur.Z, b.Z, t.DZ, func(z int) Coord { return Coord{cur.X, cur.Y, z} })
	return links
}

// Loads accumulates per-link traffic counts.
type Loads struct {
	torus  Torus
	counts []int
}

// NewLoads returns an empty load accumulator for the torus.
func NewLoads(t Torus) *Loads {
	return &Loads{torus: t, counts: make([]int, t.NumLinks())}
}

// AddRoute routes one message from a to b and adds w units of load to every
// traversed link.
func (l *Loads) AddRoute(a, b Coord, w int) {
	for _, link := range l.torus.Route(a, b) {
		l.counts[l.torus.LinkIndex(link)] += w
	}
}

// Max returns the load on the most congested link.
func (l *Loads) Max() int {
	m := 0
	for _, c := range l.counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Total returns the sum of loads over all links (total link-hops).
func (l *Loads) Total() int {
	s := 0
	for _, c := range l.counts {
		s += c
	}
	return s
}

// Get returns the load on a specific link.
func (l *Loads) Get(link Link) int { return l.counts[l.torus.LinkIndex(link)] }

// Histogram returns a map from load value to the number of links carrying
// exactly that load. Links with zero load are omitted.
func (l *Loads) Histogram() map[int]int {
	h := make(map[int]int)
	for _, c := range l.counts {
		if c > 0 {
			h[c]++
		}
	}
	return h
}
