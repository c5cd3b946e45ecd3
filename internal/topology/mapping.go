package topology

import "fmt"

// Scheme selects how the two replicas are laid out on the torus (§4.2).
type Scheme int

// Replica mapping schemes from the paper.
const (
	// DefaultScheme is the TXYZ block split: the first half of the ranks
	// (low Z planes) form replica 1, the second half replica 2. Buddy
	// traffic crosses the Z bisection, whose per-link load grows with the
	// Z extent.
	DefaultScheme Scheme = iota
	// ColumnScheme alternates single X columns (and their planes) between
	// the replicas. Every buddy pair is one hop apart, so inter-replica
	// messages never share a link.
	ColumnScheme
	// MixedScheme alternates chunks of columns between the replicas,
	// trading a small amount of link sharing for spatial separation of
	// buddies (resistance to spatially correlated failures).
	MixedScheme
)

func (s Scheme) String() string {
	switch s {
	case DefaultScheme:
		return "default"
	case ColumnScheme:
		return "column"
	case MixedScheme:
		return "mixed"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Mapping assigns every torus node to one of the two replicas and pairs each
// node with its buddy in the other replica.
type Mapping struct {
	Torus  Torus
	Scheme Scheme
	// Chunk is the column-chunk width for MixedScheme (ignored otherwise).
	Chunk int

	buddy   []int // node rank -> buddy node rank
	members [2][]int
}

// NewMapping builds a mapping of the torus onto two replicas under the given
// scheme. Constraints: DefaultScheme needs an even DZ; ColumnScheme needs an
// even DX; MixedScheme needs DX divisible by 2*chunk.
func NewMapping(t Torus, s Scheme, chunk int) (*Mapping, error) {
	m := &Mapping{
		Torus:  t,
		Scheme: s,
		Chunk:  chunk,
		buddy:  make([]int, t.Nodes()),
	}
	switch s {
	case DefaultScheme:
		if t.DZ%2 != 0 {
			return nil, fmt.Errorf("topology: default mapping needs even DZ, got %d", t.DZ)
		}
	case ColumnScheme:
		if t.DX%2 != 0 {
			return nil, fmt.Errorf("topology: column mapping needs even DX, got %d", t.DX)
		}
	case MixedScheme:
		if chunk <= 0 {
			return nil, fmt.Errorf("topology: mixed mapping needs positive chunk, got %d", chunk)
		}
		if t.DX%(2*chunk) != 0 {
			return nil, fmt.Errorf("topology: mixed mapping needs DX %% (2*chunk) == 0, got DX=%d chunk=%d", t.DX, chunk)
		}
	default:
		return nil, fmt.Errorf("topology: unknown scheme %v", s)
	}
	for rank := 0; rank < t.Nodes(); rank++ {
		c := t.CoordOf(rank)
		var rep int
		var bc Coord
		switch s {
		case DefaultScheme:
			half := t.DZ / 2
			if c.Z < half {
				rep = 0
				bc = Coord{c.X, c.Y, c.Z + half}
			} else {
				rep = 1
				bc = Coord{c.X, c.Y, c.Z - half}
			}
		case ColumnScheme:
			if c.X%2 == 0 {
				rep = 0
				bc = Coord{c.X + 1, c.Y, c.Z}
			} else {
				rep = 1
				bc = Coord{c.X - 1, c.Y, c.Z}
			}
		case MixedScheme:
			if (c.X/chunk)%2 == 0 {
				rep = 0
				bc = Coord{c.X + chunk, c.Y, c.Z}
			} else {
				rep = 1
				bc = Coord{c.X - chunk, c.Y, c.Z}
			}
		}
		m.buddy[rank] = t.RankOf(bc)
		m.members[rep] = append(m.members[rep], rank)
	}
	return m, nil
}

// Members returns the node ranks belonging to the given replica, in rank
// order. The slice is shared; callers must not modify it.
func (m *Mapping) Members(rep int) []int { return m.members[rep] }

// NodesPerReplica returns the number of nodes in each replica (they are
// always equal).
func (m *Mapping) NodesPerReplica() int { return len(m.members[0]) }

// BuddyLoads routes one w-unit message from every replica-0 node to its
// buddy (the checkpoint-exchange traffic pattern of §2.1) and returns the
// resulting link loads.
func (m *Mapping) BuddyLoads(w int) *Loads {
	loads := NewLoads(m.Torus)
	for _, rank := range m.members[0] {
		loads.AddRoute(m.Torus.CoordOf(rank), m.Torus.CoordOf(m.buddy[rank]), w)
	}
	return loads
}

// MaxBuddyLinkLoad returns the load on the most congested link when every
// replica-0 node sends one message to its buddy. This is the quantity that
// bounds checkpoint-transfer time in §6.2: under the default mapping it
// equals DZ/2, under column mapping 1, and under mixed mapping the chunk
// width.
func (m *Mapping) MaxBuddyLinkLoad() int { return m.BuddyLoads(1).Max() }

// BuddyDistance returns the hop distance between a node and its buddy.
func (m *Mapping) BuddyDistance(rank int) int {
	return m.Torus.Distance(m.Torus.CoordOf(rank), m.Torus.CoordOf(m.buddy[rank]))
}
