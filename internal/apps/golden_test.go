package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"acr/internal/runtime"
)

// goldenRun is one clean run whose packed final states feed a golden hash.
type goldenRun struct {
	factory      runtime.Factory
	nodes, tasks int
}

// goldenHash is the sha256 over runClean's packed states, in order.
func goldenHash(t *testing.T, runs []goldenRun) string {
	t.Helper()
	h := sha256.New()
	for _, r := range runs {
		for _, s := range runClean(t, r.factory, r.nodes, r.tasks) {
			h.Write(s)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelNumericsGolden pins the numerics of the three ledger kernels end
// to end: the hashes were recorded with the cell-by-cell kernels (now the
// ref* oracles in rowkernels_test.go), over degenerate and regular shapes.
func TestKernelNumericsGolden(t *testing.T) {
	const (
		wantCharmCG = "50be8f6ae2d4d533cf57c6bd90ea230b37fbd7d254a04d9137b3c00e20819cfe"
		wantAMPI    = "b8aa3db0d97c7d1eca1d3fe66030e8ab978135b67474cfbb84c86bf2bf2a81bd"
	)
	got := goldenHash(t, []goldenRun{
		{JacobiFactorySized(23, 6, 5, 7), 2, 4},
		{JacobiFactorySized(9, 2, 1, 3), 1, 8},
		{HPCCGFactorySized(17, 5, 4, 6), 2, 2},
		{HPCCGFactorySized(40, 24, 24, 24), 2, 2},
		{HPCCGFactorySized(7, 2, 3, 1), 1, 3},
	})
	if got != wantCharmCG {
		t.Errorf("Jacobi/HPCCG golden = %s, want %s", got, wantCharmCG)
	}
	got = goldenHash(t, []goldenRun{
		{JacobiAMPIFactorySized(23, 6, 5, 7), 2, 2},
		{JacobiAMPIFactorySized(9, 2, 1, 3), 1, 3},
		{JacobiAMPIFactorySized(5, 1, 1, 1), 1, 1},
	})
	if got != wantAMPI {
		t.Errorf("JacobiAMPI golden = %s, want %s", got, wantAMPI)
	}
}
