// Command acrbench measures the live checkpoint commit path — replica
// capture, buddy comparison, and the full round — at several machine
// shapes, each in two variants: a frozen serial yardstick (the
// pre-fast-path behavior, kept only inside internal/core/bench.go) and the
// controller's round body (size-hint single-pass packing, pooled checkpoint
// buffers, dirty splice, stage widths sized from the machine). It emits the
// results as a JSON report, the repo's benchmark trajectory.
//
// Usage:
//
//	go run ./cmd/acrbench                         # full matrix, writes BENCH_checkpoint.json
//	go run ./cmd/acrbench -quick                  # CI smoke subset
//	go run ./cmd/acrbench -quick -out /tmp/q.json -against BENCH_checkpoint.json -tolerance 0.25
//
// With -against, the run is additionally checked for regressions versus a
// baseline report: a case fails when its speedup ratio degrades by more
// than -tolerance relative to the baseline (only enforced where the
// baseline itself showed a speedup), or its fast-path allocs/op grow by
// more than -tolerance. Ratios, not absolute nanoseconds, so the gate is
// meaningful across machines. Cases present only on one side are never
// silently dropped: a case this run produced that the baseline lacks
// fails the check (an ungated case is a hole in the gate — regenerate the
// baseline), while baseline cases this run did not produce (a full
// baseline checked by a -quick run) are logged to stderr and skipped. The
// baseline is read and parsed before anything is measured or written, and
// -out naming the same file as -against is refused: the report would
// overwrite the baseline it is about to be checked against.
//
// Unless -fleet=false, the run also covers the fleet layer
// (internal/fleet): the fleet-scale case measures wall-clock per committed
// epoch of the sharded discrete-event fleet at 2 versus 16 jobs (131,072
// simulated cores) and gates per-epoch growth at 1.3x — an absolute,
// machine-portable bound checked even without a baseline; and a seeded
// 16-job failure burst over one shared spare must finish with zero oracle
// violations (every job completes with its bit-identical golden result).
//
// Exit status: 0 clean, 1 regression or fleet violation, 2 usage or
// execution error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	stdruntime "runtime"
	"runtime/pprof"
	"time"

	"acr/internal/buildinfo"
	"acr/internal/core"
	"acr/internal/fleet"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "run only the smoke-subset of machine shapes")
		count      = flag.Int("count", 3, "measure each cell this many times, keep the fastest")
		out        = flag.String("out", "BENCH_checkpoint.json", "write the JSON report to this file ('-' = stdout only)")
		against    = flag.String("against", "", "baseline report to check for regressions")
		tolerance  = flag.Float64("tolerance", 0.25, "allowed relative regression vs the baseline")
		withFleet  = flag.Bool("fleet", true, "run the fleet scaling case and failure-burst campaign")
		burstSeed  = flag.Int64("burst-seed", 1, "seed for the fleet failure-burst kill plan")
		only       = flag.String("only", "", "run only machine shapes whose name contains this substring")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the bench run to this file")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if buildinfo.HandleFlag(os.Stdout, "acrbench", *showVersion) {
		return
	}

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	base, err := loadBaseline(*out, *against)
	if err != nil {
		fatalf("baseline: %v", err)
	}
	logf("acrbench: GOMAXPROCS=%d quick=%v count=%d fleet=%v only=%q", stdruntime.GOMAXPROCS(0), *quick, *count, *withFleet, *only)

	// The profile brackets the measurement section only and is flushed
	// before any gate can os.Exit, so a failing run still ships a usable
	// profile for triage.
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "acrbench: close %s: %v\n", *cpuprofile, err)
			}
			stopProfile = func() {}
		}
	}

	report, err := core.RunCheckpointBench(*quick, *count, stdruntime.GOMAXPROCS(0), *only, logf)
	if err != nil {
		stopProfile()
		fatalf("bench: %v", err)
	}
	if *withFleet {
		cs, err := fleet.RunFleetScalingBench(*quick, *count, logf)
		if err != nil {
			stopProfile()
			fatalf("fleet bench: %v", err)
		}
		report.Cases = append(report.Cases, cs)
		if err := runBurst(*burstSeed, logf); err != nil {
			stopProfile()
			fmt.Fprintln(os.Stderr, "VIOLATION:", err)
			os.Exit(1)
		}
	}
	stopProfile()

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		logf("acrbench: wrote %s (%d cases)", *out, len(report.Cases))
	}

	// The fleet-scale gate is absolute (per-epoch growth <= 1.3x at 8x the
	// jobs), so it holds with or without a baseline.
	var regressions []string
	if c := report.Find(fleet.FleetScaleCaseName); c != nil && c.Speedup < 1/fleetScaleBudget {
		regressions = append(regressions, fmt.Sprintf(
			"%s: per-epoch cost at 16 jobs is %.2fx the 2-job cost (allowed <= %.2fx)",
			c.Name, 1/c.Speedup, fleetScaleBudget))
	}

	if base != nil {
		baselineRegressions, skippedBase := check(base, report, *tolerance)
		regressions = append(regressions, baselineRegressions...)
		for _, s := range skippedBase {
			logf("acrbench: baseline case %s not produced by this run, skipped (full baseline vs -quick run, or a removed shape)", s)
		}
		if len(regressions) == 0 {
			logf("acrbench: no regressions vs %s (tolerance %.0f%%, %d cases checked, %d baseline cases skipped)",
				*against, *tolerance*100, len(report.Cases), len(skippedBase))
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		os.Exit(1)
	}
}

// fleetScaleBudget is the allowed per-epoch wall-clock growth when the
// simulated fleet's job count grows 8x (2 -> 16 jobs).
const fleetScaleBudget = 1.3

// runBurst runs the seeded 16-job failure-burst acceptance campaign: one
// shared spare, six kills, and a zero-violation oracle.
func runBurst(seed int64, logf func(format string, args ...any)) error {
	spec := fleet.DefaultBurstSpec(seed)
	rep, err := fleet.RunBurst(spec)
	if err != nil {
		return err
	}
	logf("fleet-burst: %d jobs, %d kills, %d grants, %d preemptions, %v degraded total, %v elapsed",
		spec.Jobs, len(spec.Kills), rep.Stats.SpareGrants, rep.Stats.Preemptions,
		rep.Stats.DegradedTime.Round(time.Millisecond), rep.Elapsed.Round(time.Millisecond))
	if len(rep.Violations) > 0 {
		return fmt.Errorf("fleet-burst (seed %d): %d oracle violations, first: %s",
			seed, len(rep.Violations), rep.Violations[0])
	}
	return nil
}

// loadBaseline reads the -against report, nil when none was asked for. It
// runs before the measurement, so a missing or malformed baseline costs no
// bench run, and it refuses an -out that names the baseline itself: writing
// the fresh report there first would compare the run with itself and destroy
// the checked-in trajectory.
func loadBaseline(out, against string) (*core.BenchReport, error) {
	if against == "" {
		return nil, nil
	}
	if out != "-" && sameFile(out, against) {
		return nil, fmt.Errorf("-out %s is the -against baseline; pass -out <other file> (or -out -) to keep it", out)
	}
	blob, err := os.ReadFile(against)
	if err != nil {
		return nil, err
	}
	var r core.BenchReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", against, err)
	}
	return &r, nil
}

// sameFile reports whether two paths name one existing file (links and ./
// spellings included). A path that does not exist yet is no file's alias.
func sameFile(a, b string) bool {
	ia, errA := os.Stat(a)
	ib, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(ia, ib)
}

// check compares the fresh run against the baseline case by case (by
// name, so a -quick run checks against the matching subset of a full
// baseline). Gated quantities are machine-portable ratios:
//
//   - speedup (serial and fast are measured in the same run, so their
//     ratio cancels the machine's absolute speed), enforced only where
//     the baseline itself showed a >1.05x speedup;
//   - fast-path allocs/op, which are deterministic counts, with a small
//     absolute slack for one-off warmup allocations.
//
// A case missing from the baseline (a shape added after the baseline was
// generated) cannot be gated, so it fails the check until the baseline is
// regenerated. A baseline case this run did not produce (a full baseline
// checked by a -quick run, or a shape that was removed) is returned as
// skipped so the caller reports it loudly instead of silently passing it.
func check(base, cur *core.BenchReport, tol float64) (regressions, skippedBase []string) {
	for i := range base.Cases {
		if cur.Find(base.Cases[i].Name) == nil {
			skippedBase = append(skippedBase, base.Cases[i].Name)
		}
	}
	for i := range cur.Cases {
		c := &cur.Cases[i]
		b := base.Find(c.Name)
		if b == nil {
			regressions = append(regressions, fmt.Sprintf(
				"%s: not in the baseline, so nothing gates it (regenerate the baseline: go run ./cmd/acrbench)", c.Name))
			continue
		}
		if b.Speedup > 1.05 && c.Speedup < b.Speedup*(1-tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: speedup %.2fx, baseline %.2fx (allowed >= %.2fx)",
				c.Name, c.Speedup, b.Speedup, b.Speedup*(1-tol)))
		}
		allowedAllocs := int64(float64(b.Fast.AllocsPerOp)*(1+tol)) + 4
		if c.Fast.AllocsPerOp > allowedAllocs {
			regressions = append(regressions, fmt.Sprintf(
				"%s: fast path %d allocs/op, baseline %d (allowed <= %d)",
				c.Name, c.Fast.AllocsPerOp, b.Fast.AllocsPerOp, allowedAllocs))
		}
	}
	return regressions, skippedBase
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "acrbench: "+format+"\n", args...)
	os.Exit(2)
}
