// Command bench is the repository's benchmark: four workloads, each
// verified, measured end to end (untraced) and layer by layer (traced).
// Layers are measured from outside — by timing calls into exported
// functions, by store wrappers handed to core.Config, and by reading the
// public Stats / Progress / HTTP API — never by editing the program.
//
//	go run ./bench                         both passes of every workload, as a table
//	go run ./bench -only cg-faults -seed 7 one workload, another seed
//	go run ./bench -smoke                  every workload at 1/20 size, all checks on
//	go run ./bench -calibrate 5            spread table of the end-to-end metrics
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                       one pass; last stdout line is the JSON result
//
// See bench/README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// logOut receives progress and diagnostics; results go to stdout.
var logOut io.Writer = os.Stderr

type options struct {
	workload  string
	only      string
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	smoke     bool
	calibrate int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one pass of this workload and print the JSON result as the last line")
	flag.StringVar(&o.only, "only", "", "suite mode: run only this workload")
	flag.Int64Var(&o.seed, "seed", 1, "seed for kill/SDC targets, link loss, remote faults and job shapes")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measure repetitions until their solve times sum to this many seconds")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file as JSONL (with -workload or -only; default: spans stay in memory)")
	flag.BoolVar(&o.smoke, "smoke", false, "every workload at 1/20 size, one repetition, all correctness checks on")
	flag.IntVar(&o.calibrate, "calibrate", 0, "run the untraced suite this many times and print a min/median/max table")
	flag.Parse()
	os.Exit(realMain(o, os.Stdout, workloads))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// environment is the fixed measurement environment, printed with every
// result.
type environment struct {
	procs       int
	scratch     string
	scratchKind string
}

// setUpEnvironment pins GOMAXPROCS to min(nproc, 2) and picks the scratch
// root that holds the disk tier and the acrd data directory: tmpfs
// (/dev/shm) when writable, else .bench_scratch under the working
// directory. On a disk-backed ext4 the acrd workload's journal fsyncs and
// checkpoint-file unlinks made it 2-5x slower with run-to-run swings of the
// same size; on tmpfs repetitions agree within a few percent.
func setUpEnvironment() (*environment, error) {
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	if dir, err := os.MkdirTemp("/dev/shm", "acr-bench-"); err == nil {
		return &environment{procs: procs, scratch: dir, scratchKind: "tmpfs (/dev/shm)"}, nil
	}
	if err := os.MkdirAll(".bench_scratch", 0o755); err != nil {
		return nil, fmt.Errorf("scratch root: %w", err)
	}
	dir, err := os.MkdirTemp(".bench_scratch", "run-")
	if err != nil {
		return nil, fmt.Errorf("scratch root: %w", err)
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	return &environment{procs: procs, scratch: dir, scratchKind: "working directory (.bench_scratch)"}, nil
}

// passResult is one pass (untraced or traced) of one workload.
type passResult struct {
	workload          string
	traced            bool
	reps              int
	attempted, failed int
	misses            []string
	metrics           map[string]float64
	selfTime          map[string]time.Duration // traced pass: self time per layer
}

func (p *passResult) correct() bool { return len(p.misses) == 0 }

// procStats are process-level costs sampled during a traced pass.
type procStats struct{ heapPeakMB, allocMB, gcCycles float64 }

// procSampler polls runtime/metrics (no stop-the-world) on its own
// goroutine until finish is called.
type procSampler struct {
	stop   chan struct{}
	once   sync.Once
	result chan procStats
	stats  procStats
}

func startProcSampler() *procSampler {
	s := &procSampler{stop: make(chan struct{}), result: make(chan procStats, 1)}
	go func() { s.result <- sampleProcess(s.stop) }()
	return s
}

// finish stops the sampler, waits for it, and returns what it saw.
// Idempotent.
func (s *procSampler) finish() procStats {
	s.once.Do(func() {
		close(s.stop)
		s.stats = <-s.result
	})
	return s.stats
}

// sampleProcess reports the heap peak and the allocation and GC-cycle
// deltas between its start and stop closing.
func sampleProcess(stop <-chan struct{}) procStats {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	alloc0, gc0 := samples[1].Value.Uint64(), samples[2].Value.Uint64()
	peak := samples[0].Value.Uint64()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			metrics.Read(samples)
			return procStats{
				heapPeakMB: float64(max(peak, samples[0].Value.Uint64())) / 1e6,
				allocMB:    float64(samples[1].Value.Uint64()-alloc0) / 1e6,
				gcCycles:   float64(samples[2].Value.Uint64() - gc0),
			}
		case <-tick.C:
			metrics.Read(samples[:1])
			peak = max(peak, samples[0].Value.Uint64())
		}
	}
}

// runPass measures one workload: repetitions of (set-up, solve, verify)
// until the solve times sum to o.seconds. Repetition 0 is the process
// warm-up: it is verified like the rest but measures nothing, because the
// first full-size run in a fresh process is 20-40% slower (heap growth,
// page faults). The traced pass then alternates untraced and traced
// repetitions — their solve-time ratio is the tracing overhead — and runs
// the probes once, after the first traced repetition.
func runPass(env *environment, w workload, divisor int, o options, traced bool) (*passResult, error) {
	sz := w.full.div(divisor)
	pass := &passResult{workload: w.name, traced: traced}
	var tr *tracer
	var root int64
	var sampler *procSampler
	if traced {
		tr = newTracer(w.name)
		root = tr.begin(0, "bench", w.name)
		sampler = startProcSampler()
		defer sampler.finish()
	}

	var plain, withSpans []*repResult
	measured := 0.0
	for i := 0; ; i++ {
		// A traced pass runs in (untraced, traced) pairs after the warm-up
		// and ends on a complete pair.
		warm := i == 0 && !o.smoke
		repTraced := traced && !warm && pass.reps%2 == 1
		if measured >= o.seconds && pass.reps > 0 && !repTraced {
			break
		}
		dir := filepath.Join(env.scratch, fmt.Sprintf("%s-rep%d", w.name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		x := &runCtx{sz: sz, seed: o.seed*1000 + int64(i), dir: dir}
		if repTraced {
			x.tr, x.root = tr, root
			x.probe = len(withSpans) == 0
		}
		res, err := w.run(x)
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		fmt.Fprintf(logOut, "  %s rep %d: setup %.3fs solve %.3fs ops %d failed %d traced=%v warm-up=%v\n",
			w.name, i, res.setup.Seconds(), res.solve.Seconds(), res.attempted, res.failed, repTraced, warm)
		for _, m := range res.misses {
			fmt.Fprintf(logOut, "  CORRECTNESS MISS: %s\n", m)
		}
		pass.attempted += res.attempted
		pass.failed += res.failed
		pass.misses = append(pass.misses, res.misses...)
		if warm {
			continue
		}
		measured += res.solve.Seconds()
		pass.reps++
		if repTraced {
			withSpans = append(withSpans, res)
		} else {
			plain = append(plain, res)
		}
	}

	if !traced {
		pass.metrics = endToEndValues(plain)
		return pass, nil
	}
	tr.end(root)
	pass.metrics = perLayerValues(withSpans, plain, tr, sampler.finish())
	pass.selfTime = tr.selfTimeByLayer()
	if o.traceOut != "" {
		if err := tr.writeJSONL(o.traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(logOut, "  %d spans written to %s\n", tr.count(), o.traceOut)
	}
	return pass, nil
}

// metricJSON is one metric of the driver-facing result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line a -workload run prints.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (p *passResult) json() resultJSON {
	defs := endToEnd
	if p.traced {
		defs = perLayer
	}
	out := resultJSON{Correct: p.correct(), Attempted: p.attempted, Failed: p.failed, Metrics: make(map[string]metricJSON, len(defs))}
	for _, m := range defs {
		out.Metrics[m.name] = metricJSON{Value: p.metrics[m.name], Unit: m.unit}
	}
	return out
}

func findWorkload(table []workload, name string) (workload, bool) {
	for _, w := range table {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// realMain runs the benchmark over the workload table and returns the
// process exit code: 0 only when every correctness check of every pass
// held.
func realMain(o options, stdout io.Writer, table []workload) int {
	env, err := setUpEnvironment()
	if err != nil {
		fmt.Fprintln(logOut, "bench:", err)
		return 2
	}
	defer os.RemoveAll(env.scratch)
	divisor := repDivisor
	if o.smoke {
		divisor, o.seconds = smokeDivisor, 0 // one repetition (one pair when traced)
	}
	fmt.Fprintf(logOut, "bench: GOMAXPROCS=%d (nproc %d), scratch=%s, seed=%d, size=1/%d of the issue's, seconds=%g\n",
		env.procs, runtime.NumCPU(), env.scratchKind, o.seed, divisor, o.seconds)

	if o.workload != "" {
		w, ok := findWorkload(table, o.workload)
		if !ok {
			fmt.Fprintf(logOut, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		pass, err := runPass(env, w, divisor, o, o.trace != 0)
		if err != nil {
			fmt.Fprintln(logOut, "bench:", err)
			return 1
		}
		printPass(logOut, pass)
		blob, err := json.Marshal(pass.json())
		if err != nil {
			fmt.Fprintln(logOut, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", blob)
		if !pass.correct() {
			return 1
		}
		return 0
	}

	var selected []workload
	for _, w := range table {
		if o.only == "" || o.only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(logOut, "bench: unknown workload %q\n", o.only)
		return 2
	}
	if o.calibrate > 0 {
		return calibrate(env, selected, divisor, o, stdout)
	}
	code := 0
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			pass, err := runPass(env, w, divisor, o, traced)
			if err != nil {
				fmt.Fprintln(logOut, "bench:", err)
				return 1
			}
			printPass(stdout, pass)
			if !pass.correct() {
				code = 1
			}
		}
	}
	return code
}

// printPass prints every metric of a pass by name with its unit.
func printPass(w io.Writer, p *passResult) {
	kind, defs := "end-to-end (untraced)", endToEnd
	if p.traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "%s: %s, %d repetitions, %d operations attempted, %d failed, correct=%v\n",
		p.workload, kind, p.reps, p.attempted, p.failed, p.correct())
	for _, m := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, p.metrics[m.name], m.unit)
	}
	if p.traced {
		layers := make([]string, 0, len(p.selfTime))
		for l := range p.selfTime {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "  self time %-22s %14.4f ms\n", l, ms(p.selfTime[l]))
		}
	}
	for _, m := range p.misses {
		fmt.Fprintf(w, "  CORRECTNESS MISS: %s\n", m)
	}
}

// calibrate runs the untraced suite n times back to back and prints, per
// workload and end-to-end metric, min / median / max and the bound the
// spread implies: max(proposed, 1.5 x (max-min)/median).
func calibrate(env *environment, selected []workload, divisor int, o options, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-16s %-22s %12s %12s %12s %9s %9s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range selected {
		series := make(map[string][]float64)
		for i := 0; i < o.calibrate; i++ {
			run := o
			run.seed = o.seed + int64(i)
			pass, err := runPass(env, w, divisor, run, false)
			if err != nil {
				fmt.Fprintln(logOut, "bench:", err)
				return 1
			}
			if !pass.correct() {
				code = 1
			}
			for k, v := range pass.metrics {
				series[k] = append(series[k], v)
			}
		}
		for _, m := range endToEnd {
			vals := series[m.name]
			lo, mid, hi := quantile(vals, 0), median(vals), quantile(vals, 1)
			spread := ratio(hi-lo, mid)
			fmt.Fprintf(stdout, "%-16s %-22s %12.4f %12.4f %12.4f %8.1f%% %8.1f%%\n",
				w.name, m.name, lo, mid, hi, 100*spread, 100*max(m.bound, 1.5*spread))
		}
	}
	return code
}
