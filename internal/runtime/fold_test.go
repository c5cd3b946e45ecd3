package runtime

import "testing"

// TestFoldTieBreakDeterministic pins FoldOntoSurvivor's tie-break to the
// lowest PHYSICAL node id. The route is first scrambled by a spare
// replacement so that logical-index order disagrees with physical-id order:
// after logical node 0 moves to the spare (physical 6), a load tie between
// logical 0 (phys 6) and logical 2 (phys 2) must fold onto phys 2, even
// though logical 0 is scanned first.
func TestFoldTieBreakDeterministic(t *testing.T) {
	m := newTestMachine(t, Config{
		NodesPerReplica: 3,
		TasksPerNode:    1,
		Spares:          1,
		Factory:         ringFactory(1),
	})

	m.Kill(0, 0)
	if err := m.ReplaceWithSpare(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.physFor(0, 0).id; got != 6 {
		t.Fatalf("after replacement logical 0 on phys %d, want 6", got)
	}

	m.Kill(0, 1)
	survivor, err := m.FoldOntoSurvivor(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both survivors carry load 1; the tie must break to phys 2 (logical 2),
	// not phys 6 (logical 0) which the scan visits first.
	if survivor != 2 {
		t.Fatalf("fold chose logical survivor %d, want 2", survivor)
	}
	if got := m.physFor(0, 1).id; got != 2 {
		t.Fatalf("folded node routed to phys %d, want 2", got)
	}
	if got := m.FoldedCount(); got != 1 {
		t.Fatalf("FoldedCount = %d, want 1", got)
	}
}

// TestTakeSpare covers the fleet preemption primitive: the newest spare is
// withdrawn, FIFO consumption order for ReplaceWithSpare is untouched, and
// an empty pool reports ok=false.
func TestTakeSpare(t *testing.T) {
	m := newTestMachine(t, Config{
		NodesPerReplica: 2,
		TasksPerNode:    1,
		Spares:          2,
		Factory:         ringFactory(1),
	})

	// Spares are phys 4 and 5; TakeSpare withdraws the newest (5).
	id, ok := m.TakeSpare()
	if !ok || id != 5 {
		t.Fatalf("TakeSpare = (%d, %v), want (5, true)", id, ok)
	}
	if got := m.SpareCount(); got != 1 {
		t.Fatalf("SpareCount = %d, want 1", got)
	}

	// The oldest spare (4) is still first in line for replacement.
	m.Kill(0, 0)
	if err := m.ReplaceWithSpare(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.physFor(0, 0).id; got != 4 {
		t.Fatalf("replacement used phys %d, want 4", got)
	}

	if id, ok := m.TakeSpare(); ok {
		t.Fatalf("TakeSpare on empty pool = (%d, true), want ok=false", id)
	}
}
