package pup

import (
	"math/rand"
	"slices"
	"testing"
)

// refLog is the unbounded append log WriteSet was before it compacted
// itself: the reference the property test compares against.
type refLog struct{ ranges []Range }

func (l *refLog) mark(lo, hi int) {
	if hi > lo {
		l.ranges = append(l.ranges, Range{Lo: lo, Hi: hi})
	}
}

func (l *refLog) markAll() { l.ranges = append(l.ranges[:0], Range{Lo: 0, Hi: rangeMax}) }

// markPlan is one shape of mark sequence; next returns the i-th mark, or
// all=true for a MarkAll. shrinks marks a plan whose later marks bridge
// earlier ranges faster than they add new ones: the log is bounded by the
// distinct ranges it held at its last compaction, so the size check would
// compare against a count that has since fallen.
type markPlan struct {
	name    string
	shrinks bool
	next    func(rng *rand.Rand, i int) (lo, hi int, all bool)
}

var markPlans = []markPlan{
	{"alternating-far-fields", false, func(_ *rand.Rand, i int) (int, int, bool) {
		// RingProg's pattern: two scalars a field apart, every iteration.
		if i%2 == 0 {
			return 16, 24, false
		}
		return 0, 8, false
	}},
	{"sweep-with-scalars", false, func(_ *rand.Rand, i int) (int, int, bool) {
		// An ascending element sweep with a far scalar after each element.
		if i%2 == 0 {
			e := (i / 2) % 5000
			return 100 + 8*e, 108 + 8*e, false
		}
		return 0, 8, false
	}},
	{"duplicates", false, func(rng *rand.Rand, _ int) (int, int, bool) {
		lo := 64 * rng.Intn(40)
		return lo, lo + 8, false
	}},
	{"random-sparse-with-empties", false, func(rng *rand.Rand, _ int) (int, int, bool) {
		lo := rng.Intn(1 << 26)
		return lo, lo + rng.Intn(40) - 4, false
	}},
	{"random-saturating", true, func(rng *rand.Rand, _ int) (int, int, bool) {
		lo := rng.Intn(1 << 16)
		return lo, lo + rng.Intn(40) - 4, false
	}},
	{"markall-midstream", false, func(rng *rand.Rand, i int) (int, int, bool) {
		if i == 50_000 {
			return 0, 0, true
		}
		lo := 32 * rng.Intn(3000)
		return lo, lo + 8, false
	}},
	{"scattered-distinct", false, func(_ *rand.Rand, i int) (int, int, bool) {
		// Every mark is a new, non-adjacent range: nothing ever merges.
		lo := 16 * ((i * 7919) % 100_003)
		return lo, lo + 8, false
	}},
}

// TestWriteSetCompactionMatchesUnboundedLog drives the compacting set and
// the unbounded reference log with the same 1e5 marks and checks, along the
// way and at the end, that the normalized sets are identical and that the
// compacting log stays within twice the distinct ranges plus its start size.
func TestWriteSetCompactionMatchesUnboundedLog(t *testing.T) {
	const marks = 100_000
	for _, plan := range markPlans {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var ws WriteSet
			var ref refLog
			ws.MarkRange(0, 8) // blind: must be dropped
			ws.ResetDirty()
			check := func(i int) {
				t.Helper()
				got, ok := ws.DirtyRanges(nil)
				if !ok {
					t.Fatalf("%s seed %d: armed set reports blind", plan.name, seed)
				}
				logLen := len(got)
				want := NormalizeRanges(slices.Clone(ref.ranges))
				got = NormalizeRanges(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s seed %d after %d marks: normalized set differs: %d ranges, want %d", plan.name, seed, i, len(got), len(want))
				}
				if limit := 2*len(want) + writeSetStart; !plan.shrinks && logLen > limit {
					t.Fatalf("%s seed %d after %d marks: log holds %d ranges for %d distinct (limit %d)", plan.name, seed, i, logLen, len(want), limit)
				}
			}
			for i := 0; i < marks; i++ {
				lo, hi, all := plan.next(rng, i)
				if all {
					ws.MarkAll()
					ref.markAll()
				} else {
					ws.MarkRange(lo, hi)
					ref.mark(lo, hi)
				}
				if i%9973 == 0 {
					check(i)
				}
			}
			check(marks)
			// A reset starts the next interval from an empty, small log.
			ws.ResetDirty()
			if rs, ok := ws.DirtyRanges(nil); !ok || len(rs) != 0 {
				t.Fatalf("%s seed %d: reset left %d ranges (ok=%v)", plan.name, seed, len(rs), ok)
			}
		}
	}
}

// TestWriteSetMarkSteadyStateAllocs pins the per-iteration cost of the
// RingProg mark pattern: once the log has its capacity, marking allocates
// nothing, compactions included.
func TestWriteSetMarkSteadyStateAllocs(t *testing.T) {
	var ws WriteSet
	ws.ResetDirty()
	mark := func() {
		ws.MarkRange(16, 24)
		ws.MarkRange(0, 8)
	}
	for i := 0; i < 100; i++ {
		mark()
	}
	if n := testing.AllocsPerRun(1000, mark); n != 0 {
		t.Fatalf("steady-state marks allocate %.1f times per iteration, want 0", n)
	}
	ws.ResetDirty()
	if n := testing.AllocsPerRun(1000, mark); n != 0 {
		t.Fatalf("marks after a reset allocate %.1f times per iteration, want 0", n)
	}
}

// BenchmarkMarkAlternating is one ring iteration's marking: two far-apart
// scalar fields, which never merge with each other.
func BenchmarkMarkAlternating(b *testing.B) {
	var ws WriteSet
	ws.ResetDirty()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.MarkRange(16, 24)
		ws.MarkRange(0, 8)
	}
	if rs, _ := ws.DirtyRanges(nil); len(rs) > 2*2+writeSetStart {
		b.Fatalf("log grew to %d ranges", len(rs))
	}
}
