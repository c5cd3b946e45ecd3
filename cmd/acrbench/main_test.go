package main

import (
	"strings"
	"testing"

	"acr/internal/core"
)

func report(cases ...core.BenchCase) *core.BenchReport {
	return &core.BenchReport{Version: 1, Cases: cases}
}

func okCase(name string) core.BenchCase {
	return core.BenchCase{
		Name:    name,
		Serial:  core.BenchMeasurement{NsPerOp: 1000, AllocsPerOp: 100},
		Fast:    core.BenchMeasurement{NsPerOp: 250, AllocsPerOp: 10},
		Speedup: 4.0,
	}
}

func TestCheckClean(t *testing.T) {
	base := report(okCase("shape/round"))
	regressions, skippedBase := check(base, report(okCase("shape/round")), 0.25)
	if len(regressions) != 0 || len(skippedBase) != 0 {
		t.Fatalf("clean run reported regressions=%v skipped=%v", regressions, skippedBase)
	}
}

func TestCheckFlagsCaseMissingFromBaseline(t *testing.T) {
	// A case the baseline lacks is ungated: that fails the check rather
	// than passing silently until someone regenerates the baseline.
	base := report(okCase("shape/round"))
	cur := report(okCase("shape/round"), okCase("new-shape/round"))
	regressions, skippedBase := check(base, cur, 0.25)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "new-shape/round") {
		t.Fatalf("regressions = %v, want exactly one naming new-shape/round", regressions)
	}
	if len(skippedBase) != 0 {
		t.Fatalf("skippedBase = %v, want none", skippedBase)
	}
}

func TestCheckReportsBaselineCasesMissingFromRun(t *testing.T) {
	// A full baseline checked by a -quick run: the un-run cases must be
	// surfaced, not silently passed.
	base := report(okCase("shape/round"), okCase("big-shape/round"))
	cur := report(okCase("shape/round"))
	regressions, skippedBase := check(base, cur, 0.25)
	if len(regressions) != 0 {
		t.Fatalf("unexpected regressions=%v", regressions)
	}
	if len(skippedBase) != 1 || skippedBase[0] != "big-shape/round" {
		t.Fatalf("skippedBase = %v, want exactly [big-shape/round]", skippedBase)
	}
}

func TestCheckFlagsSpeedupRegression(t *testing.T) {
	base := report(okCase("shape/round"))
	cur := report(okCase("shape/round"))
	cur.Cases[0].Speedup = 2.0 // below 4.0 * (1 - 0.25)
	regressions, skippedBase := check(base, cur, 0.25)
	if len(skippedBase) != 0 {
		t.Fatalf("unexpected skips: %v", skippedBase)
	}
	if len(regressions) != 1 || !strings.Contains(regressions[0], "speedup") {
		t.Fatalf("regressions = %v, want one speedup regression", regressions)
	}
}

func TestCheckIgnoresSpeedupWhereBaselineHadNone(t *testing.T) {
	// Speedup gate only applies where the baseline itself beat 1.05x.
	c := okCase("shape/compare")
	c.Speedup = 1.0
	base := report(c)
	cur := report(c)
	cur.Cases[0].Speedup = 0.5
	regressions, _ := check(base, cur, 0.25)
	if len(regressions) != 0 {
		t.Fatalf("gated a case whose baseline showed no speedup: %v", regressions)
	}
}

func TestCheckFlagsAllocRegression(t *testing.T) {
	base := report(okCase("shape/round"))
	cur := report(okCase("shape/round"))
	// Allowed is 10*1.25 + 4 = 16.
	cur.Cases[0].Fast.AllocsPerOp = 17
	regressions, _ := check(base, cur, 0.25)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "allocs/op") {
		t.Fatalf("regressions = %v, want one alloc regression", regressions)
	}
}
