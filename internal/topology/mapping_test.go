package topology

import (
	"slices"
	"testing"
	"testing/quick"
)

func mustMapping(t *testing.T, tr Torus, s Scheme, chunk int) *Mapping {
	t.Helper()
	m, err := NewMapping(tr, s, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func checkMappingInvariants(t *testing.T, m *Mapping) {
	t.Helper()
	tr := m.Torus
	if len(m.Members(0)) != len(m.Members(1)) {
		t.Fatalf("unbalanced replicas: %d vs %d", len(m.Members(0)), len(m.Members(1)))
	}
	if m.NodesPerReplica()*2 != tr.Nodes() {
		t.Fatalf("replicas do not cover the torus")
	}
	// Buddies are a fixed translation of each other, so the members of the
	// two replicas pair up in rank order (netsim's DES tests rely on it).
	for i, rank := range m.Members(0) {
		if m.BuddyOf(rank) != m.Members(1)[i] {
			t.Fatalf("member %d of replica 0 (node %d) is not paired with member %d of replica 1", i, rank, i)
		}
	}
	for rank := 0; rank < tr.Nodes(); rank++ {
		b := m.BuddyOf(rank)
		if b == rank {
			t.Fatalf("node %d is its own buddy", rank)
		}
		if m.BuddyOf(b) != rank {
			t.Fatalf("buddy not symmetric: %d -> %d -> %d", rank, b, m.BuddyOf(b))
		}
		if m.ReplicaOf(rank) == m.ReplicaOf(b) {
			t.Fatalf("node %d and buddy %d in same replica", rank, b)
		}
	}
}

func TestDefaultMapping(t *testing.T) {
	tr := mustTorus(t, 8, 8, 8)
	m := mustMapping(t, tr, DefaultScheme, 0)
	checkMappingInvariants(t, m)
	// Replica 0 is the low-Z half; buddy of (x,y,z) is (x,y,z+4).
	c := Coord{3, 2, 1}
	if m.ReplicaOf(tr.RankOf(c)) != 0 {
		t.Fatal("low-Z node not in replica 0")
	}
	if got := m.BuddyOf(tr.RankOf(c)); got != tr.RankOf(Coord{3, 2, 5}) {
		t.Fatalf("buddy of %v = %v", c, tr.CoordOf(got))
	}
	// Every buddy pair is DZ/2 hops apart.
	for rank := 0; rank < tr.Nodes(); rank++ {
		if d := m.BuddyDistance(rank); d != 4 {
			t.Fatalf("buddy distance %d, want 4", d)
		}
	}
}

func TestColumnMapping(t *testing.T) {
	tr := mustTorus(t, 8, 8, 8)
	m := mustMapping(t, tr, ColumnScheme, 0)
	checkMappingInvariants(t, m)
	for rank := 0; rank < tr.Nodes(); rank++ {
		if d := m.BuddyDistance(rank); d != 1 {
			t.Fatalf("column buddy distance %d, want 1", d)
		}
	}
}

func TestMixedMapping(t *testing.T) {
	tr := mustTorus(t, 8, 8, 8)
	m := mustMapping(t, tr, MixedScheme, 2)
	checkMappingInvariants(t, m)
	for rank := 0; rank < tr.Nodes(); rank++ {
		if d := m.BuddyDistance(rank); d != 2 {
			t.Fatalf("mixed(2) buddy distance %d, want 2", d)
		}
	}
}

func TestMappingConstraintErrors(t *testing.T) {
	oddZ := mustTorus(t, 8, 8, 7)
	if _, err := NewMapping(oddZ, DefaultScheme, 0); err == nil {
		t.Error("default mapping on odd DZ should fail")
	}
	oddX := mustTorus(t, 7, 8, 8)
	if _, err := NewMapping(oddX, ColumnScheme, 0); err == nil {
		t.Error("column mapping on odd DX should fail")
	}
	tr := mustTorus(t, 8, 8, 8)
	if _, err := NewMapping(tr, MixedScheme, 0); err == nil {
		t.Error("mixed mapping with chunk 0 should fail")
	}
	if _, err := NewMapping(tr, MixedScheme, 3); err == nil {
		t.Error("mixed mapping with 8 %% 6 != 0 should fail")
	}
	if _, err := NewMapping(tr, Scheme(42), 0); err == nil {
		t.Error("unknown scheme should fail")
	}
}

// TestFig6LinkLoads reproduces the load structure of Figure 6: on a 512-node
// 8x8x8 torus, the default mapping's bisection links carry DZ/2 = 4
// messages, the column mapping carries exactly 1 everywhere it is used, and
// mixed mapping with chunk 2 peaks at 2.
func TestFig6LinkLoads(t *testing.T) {
	tr := mustTorus(t, 8, 8, 8)
	cases := []struct {
		scheme Scheme
		chunk  int
		max    int
	}{
		{DefaultScheme, 0, 4},
		{ColumnScheme, 0, 1},
		{MixedScheme, 2, 2},
	}
	for _, c := range cases {
		m := mustMapping(t, tr, c.scheme, c.chunk)
		if got := m.MaxBuddyLinkLoad(); got != c.max {
			t.Errorf("%v: max link load = %d, want %d", c.scheme, got, c.max)
		}
	}
}

// TestDefaultBottleneckGrowsWithZ verifies the §6.2 observation: the default
// mapping's bottleneck is proportional to the Z extent, so transfer cost
// grows from the 8^3 allocation to the Z=32 allocation and then flattens.
func TestDefaultBottleneckGrowsWithZ(t *testing.T) {
	loads := make(map[int]int)
	for _, shape := range [][3]int{{8, 8, 8}, {8, 8, 16}, {8, 8, 32}, {8, 16, 32}, {16, 16, 32}, {32, 32, 32}} {
		tr := mustTorus(t, shape[0], shape[1], shape[2])
		m := mustMapping(t, tr, DefaultScheme, 0)
		loads[tr.DZ] = m.MaxBuddyLinkLoad()
	}
	if loads[8] != 4 || loads[16] != 8 || loads[32] != 16 {
		t.Fatalf("default bottleneck loads = %v, want Z/2 each", loads)
	}
}

func TestColumnLoadFlatAcrossAllocations(t *testing.T) {
	for _, shape := range [][3]int{{8, 8, 8}, {8, 8, 32}, {16, 16, 32}, {32, 32, 32}} {
		tr := mustTorus(t, shape[0], shape[1], shape[2])
		m := mustMapping(t, tr, ColumnScheme, 0)
		if got := m.MaxBuddyLinkLoad(); got != 1 {
			t.Errorf("column max load on %v = %d, want 1", shape, got)
		}
	}
}

func TestMappingProperty(t *testing.T) {
	f := func(sel uint8) bool {
		shapes := [][3]int{{4, 4, 4}, {8, 4, 2}, {8, 8, 8}, {4, 8, 16}}
		shape := shapes[int(sel)%len(shapes)]
		tr, err := NewTorus(shape[0], shape[1], shape[2])
		if err != nil {
			return false
		}
		for _, s := range []Scheme{DefaultScheme, ColumnScheme} {
			m, err := NewMapping(tr, s, 0)
			if err != nil {
				return false
			}
			for rank := 0; rank < tr.Nodes(); rank++ {
				if m.BuddyOf(m.BuddyOf(rank)) != rank {
					return false
				}
				if m.ReplicaOf(rank) == m.ReplicaOf(m.BuddyOf(rank)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocation(t *testing.T) {
	a, err := NewAllocation(1024)
	if err != nil {
		t.Fatal(err)
	}
	if a.NodesPerReplica != 256 {
		t.Fatalf("nodes per replica = %d, want 256", a.NodesPerReplica)
	}
	if a.Torus.Nodes() != 512 {
		t.Fatalf("torus nodes = %d, want 512", a.Torus.Nodes())
	}
	if a.Torus.DZ != 8 {
		t.Fatalf("1K cores/replica should land on Z=8, got %d", a.Torus.DZ)
	}
	a4k, err := NewAllocation(4096)
	if err != nil {
		t.Fatal(err)
	}
	if a4k.Torus.DZ != 32 {
		t.Fatalf("4K cores/replica should land on Z=32, got %d", a4k.Torus.DZ)
	}
	if _, err := NewAllocation(1000); err == nil {
		t.Error("non-multiple of 4 should fail")
	}
	if _, err := NewAllocation(3 * 4); err == nil {
		t.Error("unknown shape should fail")
	}
	// Every listed BG/P shape is an allocation.
	for total := range bgpShapes {
		if _, err := NewAllocation(total / 2 * CoresPerNode); err != nil {
			t.Errorf("shape of %d nodes fails: %v", total, err)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if DefaultScheme.String() != "default" || ColumnScheme.String() != "column" || MixedScheme.String() != "mixed" {
		t.Fatal("Scheme.String broken")
	}
	if Scheme(99).String() == "" {
		t.Fatal("unknown scheme should format")
	}
}

// BuddyOf returns the node rank of the buddy in the other replica.
func (m *Mapping) BuddyOf(rank int) int { return m.buddy[rank] }

// ReplicaOf returns 0 or 1: the replica whose members list the node.
func (m *Mapping) ReplicaOf(rank int) int {
	if slices.Contains(m.members[1], rank) {
		return 1
	}
	return 0
}
