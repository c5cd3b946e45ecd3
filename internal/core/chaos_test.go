package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"acr/internal/runtime"
)

// chaosEvent is one planned injection: a kill (hard) or an SDC at a
// uniformly random node of a uniformly random replica.
type chaosEvent struct {
	at            float64 // seconds from the start of the run
	hard          bool
	replica, node int
}

// chaosPlan merges hard-error and SDC times into one time-ordered plan,
// drawing each event's target from rng; equal times keep hard before SDC.
func chaosPlan(hard, sdc []float64, nodes int, rng *rand.Rand) []chaosEvent {
	var plan []chaosEvent
	for _, at := range hard {
		plan = append(plan, chaosEvent{at, true, rng.Intn(2), rng.Intn(nodes)})
	}
	for _, at := range sdc {
		plan = append(plan, chaosEvent{at, false, rng.Intn(2), rng.Intn(nodes)})
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	return plan
}

// TestChaosPlan drives a full randomized failure plan (merged hard-error
// and SDC schedules) against a live ACR run and
// verifies the final state is still bit-exact. This is the closest live
// analogue of the paper's injection campaigns (§6.1) at laptop scale.
func TestChaosPlan(t *testing.T) {
	const nodes, tasks, iters = 2, 2, 30000
	for _, scheme := range []Scheme{Strong, Medium, Weak} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(33))
			// Times in milliseconds of wall clock, scaled to the run.
			hard := []float64{12e-3, 40e-3}
			sdc := []float64{8e-3, 25e-3, 55e-3}
			plan := chaosPlan(hard, sdc, nodes, rng)

			cfg := baseConfig(nodes, tasks, iters)
			cfg.Scheme = scheme
			cfg.Spares = len(hard) + 1
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				start := time.Now()
				for _, ev := range plan {
					delay := time.Duration(ev.at*float64(time.Second)) - time.Since(start)
					if delay > 0 {
						time.Sleep(delay)
					}
					if ev.hard {
						ctrl.KillNode(ev.replica, ev.node)
					} else {
						ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{
							Replica: ev.replica, Node: ev.node, Task: rng.Intn(tasks),
						})
					}
				}
			}()
			stats, err := ctrl.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.HardErrors == 0 && stats.SDCDetected == 0 {
				t.Skip("run finished before any injection landed (machine too fast)")
			}
			verifyFinalState(t, ctrl, nodes, tasks, iters)
			t.Logf("%v: hard=%d sdc=%d rollbacks=%d checkpoints=%d",
				scheme, stats.HardErrors, stats.SDCDetected, stats.Rollbacks, stats.Checkpoints)
		})
	}
}

// TestEstimators: every estimator choice adapts the interval and finishes
// correctly.
func TestEstimators(t *testing.T) {
	for _, est := range []Estimator{TrendEstimator, MeanEstimator, WeibullEstimator} {
		est := est
		t.Run(est.String(), func(t *testing.T) {
			cfg := baseConfig(2, 1, 60000)
			cfg.Scheme = Medium
			cfg.Adaptive = true
			cfg.Estimator = est
			cfg.Spares = 4
			cfg.CheckpointInterval = 8 * time.Millisecond // adaptive clamp [1 ms, 64 ms]
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				for i := 0; i < 3; i++ {
					time.Sleep(10 * time.Millisecond)
					ctrl.KillNode(i%2, i%2)
				}
			}()
			stats, err := ctrl.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.HardErrors < 2 {
				t.Skipf("only %d failures landed", stats.HardErrors)
			}
			if est != WeibullEstimator || stats.HardErrors >= 3 {
				// Weibull needs >= 3 failures to engage; others adapt
				// from 2.
				if stats.FinalInterval == cfg.CheckpointInterval {
					t.Error("estimator never changed the interval")
				}
			}
			verifyFinalState(t, ctrl, 2, 1, 60000)
		})
	}
}

func TestEstimatorString(t *testing.T) {
	if TrendEstimator.String() != "trend" || MeanEstimator.String() != "mean" || WeibullEstimator.String() != "weibull" {
		t.Fatal("Estimator.String broken")
	}
	if Estimator(9).String() == "" {
		t.Fatal("unknown estimator should format")
	}
}
