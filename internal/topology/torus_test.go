package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustTorus(t *testing.T, dx, dy, dz int) Torus {
	t.Helper()
	tr, err := NewTorus(dx, dy, dz)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTorusInvalid(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		if _, err := NewTorus(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("NewTorus(%v) succeeded, want error", dims)
		}
	}
}

func TestRankCoordRoundTrip(t *testing.T) {
	tr := mustTorus(t, 3, 5, 7)
	for rank := 0; rank < tr.Nodes(); rank++ {
		c := tr.CoordOf(rank)
		if !tr.Contains(c) {
			t.Fatalf("CoordOf(%d) = %v outside torus", rank, c)
		}
		if got := tr.RankOf(c); got != rank {
			t.Fatalf("RankOf(CoordOf(%d)) = %d", rank, got)
		}
	}
}

func TestTXYZOrder(t *testing.T) {
	tr := mustTorus(t, 4, 3, 2)
	// X varies fastest: ranks 0..3 are the X column at y=0,z=0.
	for x := 0; x < 4; x++ {
		if got := tr.RankOf(Coord{x, 0, 0}); got != x {
			t.Fatalf("RankOf(%d,0,0) = %d, want %d", x, got, x)
		}
	}
	// Z varies slowest.
	if got := tr.RankOf(Coord{0, 0, 1}); got != 12 {
		t.Fatalf("RankOf(0,0,1) = %d, want 12", got)
	}
}

func TestHopsAndDir(t *testing.T) {
	cases := []struct {
		a, b, d, hops, dir int
	}{
		{0, 0, 8, 0, 1},
		{0, 3, 8, 3, 1},
		{0, 4, 8, 4, 1},  // tie goes positive
		{0, 5, 8, 3, -1}, // wrap is shorter
		{7, 0, 8, 1, 1},
		{2, 1, 8, 1, -1},
	}
	for _, c := range cases {
		hops, dir := hopsAndDir(c.a, c.b, c.d)
		if hops != c.hops || dir != c.dir {
			t.Errorf("hopsAndDir(%d,%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, c.d, hops, dir, c.hops, c.dir)
		}
	}
}

func TestRouteLengthEqualsDistance(t *testing.T) {
	tr := mustTorus(t, 4, 4, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := tr.CoordOf(rng.Intn(tr.Nodes()))
		b := tr.CoordOf(rng.Intn(tr.Nodes()))
		route := tr.Route(a, b)
		if len(route) != tr.Distance(a, b) {
			t.Fatalf("route %v->%v has %d links, distance %d", a, b, len(route), tr.Distance(a, b))
		}
	}
}

func TestRouteIsConnected(t *testing.T) {
	tr := mustTorus(t, 5, 3, 4)
	apply := func(c Coord, l Link) Coord {
		if l.From != c {
			t.Fatalf("link %v does not start at %v", l, c)
		}
		switch l.Dim {
		case DimX:
			c.X = ((c.X+l.Dir)%tr.DX + tr.DX) % tr.DX
		case DimY:
			c.Y = ((c.Y+l.Dir)%tr.DY + tr.DY) % tr.DY
		case DimZ:
			c.Z = ((c.Z+l.Dir)%tr.DZ + tr.DZ) % tr.DZ
		}
		return c
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := tr.CoordOf(rng.Intn(tr.Nodes()))
		b := tr.CoordOf(rng.Intn(tr.Nodes()))
		cur := a
		for _, l := range tr.Route(a, b) {
			cur = apply(cur, l)
		}
		if cur != b {
			t.Fatalf("route %v->%v ends at %v", a, b, cur)
		}
	}
}

func TestRouteProperty(t *testing.T) {
	tr := mustTorus(t, 8, 8, 8)
	f := func(ar, br uint16) bool {
		a := tr.CoordOf(int(ar) % tr.Nodes())
		b := tr.CoordOf(int(br) % tr.Nodes())
		route := tr.Route(a, b)
		// Dimension-ordered: dims along the route never decrease.
		last := DimX
		for _, l := range route {
			if l.Dim < last {
				return false
			}
			last = l.Dim
		}
		return len(route) == tr.Distance(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkIndexUnique(t *testing.T) {
	tr := mustTorus(t, 3, 3, 3)
	seen := make(map[int]bool)
	for rank := 0; rank < tr.Nodes(); rank++ {
		for _, dim := range []Dim{DimX, DimY, DimZ} {
			for _, dir := range []int{-1, 1} {
				idx := tr.LinkIndex(Link{From: tr.CoordOf(rank), Dim: dim, Dir: dir})
				if idx < 0 || idx >= tr.NumLinks() {
					t.Fatalf("index %d out of range", idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate link index %d", idx)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != tr.NumLinks() {
		t.Fatalf("got %d distinct indices, want %d", len(seen), tr.NumLinks())
	}
}

func TestLoadsAccounting(t *testing.T) {
	tr := mustTorus(t, 8, 1, 1)
	loads := NewLoads(tr)
	loads.AddRoute(Coord{0, 0, 0}, Coord{2, 0, 0}, 1)
	loads.AddRoute(Coord{1, 0, 0}, Coord{3, 0, 0}, 2)
	// Link 1->2 carries both routes: 1 + 2.
	if got := loads.Get(Link{From: Coord{1, 0, 0}, Dim: DimX, Dir: 1}); got != 3 {
		t.Fatalf("link 1->2 load = %d, want 3", got)
	}
	if loads.Max() != 3 {
		t.Fatalf("max = %d, want 3", loads.Max())
	}
	if loads.Total() != 2+4 {
		t.Fatalf("total = %d, want 6", loads.Total())
	}
}

func TestDimString(t *testing.T) {
	if DimX.String() != "X" || DimY.String() != "Y" || DimZ.String() != "Z" {
		t.Fatal("Dim.String() broken")
	}
	if Dim(9).String() == "" {
		t.Fatal("unknown dim should still format")
	}
}

// Contains reports whether the coordinate lies on the torus.
func (t Torus) Contains(c Coord) bool {
	return c.X >= 0 && c.X < t.DX && c.Y >= 0 && c.Y < t.DY && c.Z >= 0 && c.Z < t.DZ
}
