// Command acrfleet runs a multi-job fleet campaign from a JSON spec: many
// concurrent ACR jobs multiplexed over a shared node pool, a shared spare
// pool, and a shared disk-bandwidth budget (internal/fleet). Optional
// seeded kills inject hard errors into admitted jobs, exercising the
// fleet's spare brokering; every default-workload job is verified bit for
// bit against the serial ring reference at the end.
//
// Usage:
//
//	go run ./cmd/acrfleet -spec examples/fleet_spec/fleet16.json
//	go run ./cmd/acrfleet -spec examples/fleet_spec/smoke8.json -timeline
//
// Output is one JSON report on stdout: fleet stats (admissions, queue
// waits, spare grants, preemptions, per-job degraded time, I/O-arbiter
// counters) plus any oracle violations.
//
// Exit status: 0 clean, 1 violations (failed jobs, golden mismatches, or
// drain timeout), 2 usage or spec errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"acr/internal/buildinfo"
	"acr/internal/core"
	"acr/internal/fleet"
	"acr/internal/trace"
)

// fileSpec is the on-disk campaign format. Durations are milliseconds and
// schemes are names, so specs stay hand-editable.
type fileSpec struct {
	Nodes         int     `json:"nodes"`
	Spares        int     `json:"spares"`
	BytesPerSec   float64 `json:"bytes_per_sec"`
	TransferSlots int     `json:"transfer_slots"`
	WatchdogSec   float64 `json:"watchdog_sec"`

	Jobs  []fileJob  `json:"jobs"`
	Kills []fileKill `json:"kills"`
}

type fileJob struct {
	Name       string  `json:"name"`
	Priority   int     `json:"priority"`
	Nodes      int     `json:"nodes"`
	Tasks      int     `json:"tasks"`
	Spares     int     `json:"spares"`
	Iters      int     `json:"iters"`
	Scheme     string  `json:"scheme"`
	Comparison string  `json:"comparison"`
	IntervalMs float64 `json:"interval_ms"`
	FlushEvery int     `json:"flush_every"`
}

type fileKill struct {
	Job     int     `json:"job"`
	Replica int     `json:"replica"`
	Node    int     `json:"node"`
	AfterMs float64 `json:"after_ms"`
}

type report struct {
	Spec       string           `json:"spec"`
	Elapsed    float64          `json:"elapsed_sec"`
	Stats      fleet.FleetStats `json:"stats"`
	Violations []string         `json:"violations,omitempty"`
}

func main() {
	var (
		specPath = flag.String("spec", "", "fleet campaign JSON (required)")
		timeline = flag.Bool("timeline", false, "dump fleet trace events to stderr")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if buildinfo.HandleFlag(os.Stdout, "acrfleet", *showVersion) {
		return
	}
	if *specPath == "" {
		fatalf("-spec is required")
	}
	blob, err := os.ReadFile(*specPath)
	if err != nil {
		fatalf("%v", err)
	}
	var spec fileSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		fatalf("parse %s: %v", *specPath, err)
	}
	if len(spec.Jobs) == 0 {
		fatalf("%s: no jobs", *specPath)
	}
	jobs := make([]fleet.JobSpec, len(spec.Jobs))
	for i, fj := range spec.Jobs {
		if jobs[i], err = toJobSpec(fj, i); err != nil {
			fatalf("%s: job %d: %v", *specPath, i, err)
		}
	}
	kills := make([]fleet.BurstKill, len(spec.Kills))
	for i, k := range spec.Kills {
		kills[i] = fleet.BurstKill{Job: k.Job, Replica: k.Replica, Node: k.Node,
			After: time.Duration(k.AfterMs * float64(time.Millisecond))}
	}
	var tl *trace.Timeline
	if *timeline {
		tl = &trace.Timeline{}
	}
	res, err := fleet.RunCampaign(fleet.Config{
		Nodes:         spec.Nodes,
		Spares:        spec.Spares,
		BytesPerSec:   spec.BytesPerSec,
		TransferSlots: spec.TransferSlots,
		Timeline:      tl,
	}, jobs, kills, time.Duration(spec.WatchdogSec*float64(time.Second)))
	if err != nil {
		fatalf("%s: %v", *specPath, err)
	}
	rep := report{Spec: *specPath, Elapsed: res.Elapsed.Seconds(), Stats: res.Stats, Violations: res.Violations}

	if tl != nil {
		for _, e := range tl.Events() {
			fmt.Fprintf(os.Stderr, "%8.3fs %-6s %s\n", e.Time, e.Kind, e.Detail)
		}
	}
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	os.Stdout.Write(append(out, '\n'))
	if len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

func toJobSpec(fj fileJob, i int) (fleet.JobSpec, error) {
	js := fleet.JobSpec{
		Name:       fj.Name,
		Priority:   fj.Priority,
		Nodes:      fj.Nodes,
		Tasks:      fj.Tasks,
		Spares:     fj.Spares,
		Iters:      fj.Iters,
		FlushEvery: fj.FlushEvery,
		Interval:   time.Duration(fj.IntervalMs * float64(time.Millisecond)),
	}
	if js.Name == "" {
		js.Name = fmt.Sprintf("job-%02d", i)
	}
	switch fj.Scheme {
	case "strong", "":
		js.Scheme = core.Strong
	case "medium":
		js.Scheme = core.Medium
	case "weak":
		js.Scheme = core.Weak
	default:
		return js, fmt.Errorf("unknown scheme %q", fj.Scheme)
	}
	switch fj.Comparison {
	case "full", "":
		js.Comparison = core.FullCompare
	case "checksum":
		js.Comparison = core.ChecksumCompare
	default:
		return js, fmt.Errorf("unknown comparison %q", fj.Comparison)
	}
	return js, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "acrfleet: "+format+"\n", args...)
	os.Exit(2)
}
