package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// TestMain lets the tests below run the command itself: re-executed with
// ACRBENCH_TEST_RUN_MAIN set, the test binary is acrbench.
func TestMain(m *testing.M) {
	if os.Getenv("ACRBENCH_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// acrbench runs the command in dir with the given flags and returns its
// exit code and stderr.
func acrbench(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "ACRBENCH_TEST_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("run acrbench: %v", err)
	return 0, ""
}

func writeBaseline(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := json.Marshal(report(okCase("shape/round")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRefusesOutEqualAgainst: -against the default -out (or any spelling of
// it) used to write the fresh report over the baseline and then compare the
// run with itself. It must fail before measuring, with the baseline intact.
func TestRefusesOutEqualAgainst(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_checkpoint.json")
	want := writeBaseline(t, baseline)

	for _, args := range [][]string{
		{"-against", "BENCH_checkpoint.json"}, // the default -out
		{"-against", baseline, "-out", "./BENCH_checkpoint.json"},
	} {
		code, stderr := acrbench(t, dir, args...)
		if code != 2 || !strings.Contains(stderr, "-against baseline") {
			t.Fatalf("acrbench %v: exit %d, stderr %q; want a usage failure naming the clash", args, code, stderr)
		}
		if got, err := os.ReadFile(baseline); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("acrbench %v touched the baseline (err %v)", args, err)
		}
	}
	if _, err := loadBaseline("-", baseline); err != nil {
		t.Fatalf("-out - must be allowed next to any baseline: %v", err)
	}
	if _, err := loadBaseline(filepath.Join(dir, "fresh.json"), baseline); err != nil {
		t.Fatalf("a distinct -out must be allowed: %v", err)
	}
}

// TestBaselineReadBeforeTheRun: the baseline is parsed up front — an
// unreadable one fails the command before a single case is measured or the
// report written, and a good one is held in memory, not re-read afterwards.
func TestBaselineReadBeforeTheRun(t *testing.T) {
	dir := t.TempDir()
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, against := range []string{garbled, filepath.Join(dir, "missing.json")} {
		code, stderr := acrbench(t, dir, "-quick", "-count", "1", "-fleet=false", "-out", "fresh.json", "-against", against)
		if code != 2 || !strings.Contains(stderr, "baseline:") {
			t.Fatalf("-against %s: exit %d, stderr %q; want a baseline failure", against, code, stderr)
		}
		if strings.Contains(stderr, "ns/op") {
			t.Fatalf("-against %s: cases were measured before the baseline was read:\n%s", against, stderr)
		}
		if _, err := os.Stat(filepath.Join(dir, "fresh.json")); !os.IsNotExist(err) {
			t.Fatalf("-against %s: report written despite the unusable baseline (stat err %v)", against, err)
		}
	}

	good := filepath.Join(dir, "good.json")
	writeBaseline(t, good)
	base, err := loadBaseline(filepath.Join(dir, "fresh.json"), good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(good); err != nil {
		t.Fatal(err)
	}
	if base.Find("shape/round") == nil {
		t.Fatal("loaded baseline lost its cases")
	}
	if base, err := loadBaseline("BENCH_checkpoint.json", ""); base != nil || err != nil {
		t.Fatalf("no -against: got %v, %v; want nil, nil", base, err)
	}
}
