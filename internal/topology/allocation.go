package topology

import "fmt"

// CoresPerNode is the BG/P SMP-mode core count per node used throughout the
// paper's evaluation.
const CoresPerNode = 4

// Allocation describes a job allocation on the machine: the torus that holds
// both replicas plus the per-replica sizes.
type Allocation struct {
	Torus           Torus
	CoresPerReplica int
	NodesPerReplica int
}

// bgpShapes lists BG/P-style partition shapes by total node count. The Z
// dimension grows first (8 -> 32) and then stays at 32 while X and Y grow,
// which is exactly the behaviour §6.2 uses to explain the 1K->4K growth and
// >=4K flatness of the default-mapping transfer time.
var bgpShapes = map[int][3]int{
	128:    {4, 4, 8},
	256:    {4, 8, 8},
	512:    {8, 8, 8},
	1024:   {8, 8, 16},
	2048:   {8, 8, 32},
	4096:   {8, 16, 32},
	8192:   {16, 16, 32},
	16384:  {16, 32, 32},
	32768:  {32, 32, 32},
	65536:  {32, 32, 64},
	131072: {32, 64, 64},
}

// NewAllocation returns the BG/P-style allocation for the given number of
// cores per replica. Both replicas plus their nodes must fit on a known
// partition shape: total nodes = 2 * coresPerReplica / CoresPerNode.
func NewAllocation(coresPerReplica int) (Allocation, error) {
	if coresPerReplica <= 0 || coresPerReplica%CoresPerNode != 0 {
		return Allocation{}, fmt.Errorf("topology: cores per replica %d not a multiple of %d", coresPerReplica, CoresPerNode)
	}
	nodesPerReplica := coresPerReplica / CoresPerNode
	total := 2 * nodesPerReplica
	shape, ok := bgpShapes[total]
	if !ok {
		return Allocation{}, fmt.Errorf("topology: no BG/P partition shape for %d nodes", total)
	}
	t, err := NewTorus(shape[0], shape[1], shape[2])
	if err != nil {
		return Allocation{}, err
	}
	return Allocation{Torus: t, CoresPerReplica: coresPerReplica, NodesPerReplica: nodesPerReplica}, nil
}
