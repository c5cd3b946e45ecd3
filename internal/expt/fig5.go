package expt

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"acr/internal/apps"
	"acr/internal/chaos/pacing"
	"acr/internal/chaos/point"
	"acr/internal/core"
	"acr/internal/trace"
)

// Fig5Scenario is one panel of Figure 5: a live ACR run of Jacobi3D under
// one reliability configuration with a single injected hard error.
type Fig5Scenario struct {
	Name     string
	Scheme   core.Scheme
	Periodic bool // false = hard-error-only protection (panel a)
}

// Fig5Scenarios lists the four panels.
func Fig5Scenarios() []Fig5Scenario {
	return []Fig5Scenario{
		{Name: "(a) hard-error protection only", Scheme: core.Medium, Periodic: false},
		{Name: "(b) strong resilience", Scheme: core.Strong, Periodic: true},
		{Name: "(c) medium resilience", Scheme: core.Medium, Periodic: true},
		{Name: "(d) weak resilience", Scheme: core.Weak, Periodic: true},
	}
}

// Fig5Run executes one scenario live (milliseconds instead of minutes) and
// returns the control-flow events plus the run statistics.
type Fig5Run struct {
	Scenario Fig5Scenario
	Events   []trace.Event
	Stats    core.Stats
}

// Fig5 runs all four scenarios of the control-flow figure.
func Fig5() ([]Fig5Run, error) {
	const iters = 500
	var out []Fig5Run
	for _, sc := range Fig5Scenarios() {
		tl := &trace.Timeline{}
		var ctrl *core.Controller
		var pacer *pacing.Pacer
		var crashed atomic.Bool
		crash := func() {
			if crashed.CompareAndSwap(false, true) {
				if pacer != nil {
					pacer.Stop() // recovery must find no task held by the pacer
				}
				ctrl.KillNode(1, 0) // replica 2 crashes, as in the figure
			}
		}
		cfg := core.Config{
			NodesPerReplica:   2,
			TasksPerNode:      2,
			Spares:            1,
			Factory:           apps.JacobiFactory(iters),
			Scheme:            sc.Scheme,
			Comparison:        core.FullCompare,
			HeartbeatInterval: time.Millisecond,
			HeartbeatTimeout:  8 * time.Millisecond,
			Timeline:          tl,
		}
		// The crash follows the first checkpoint, as in the figure, and
		// failing one (panel a takes none) it comes when the node's first
		// task is three quarters through — an iteration, not a duration the
		// job may not last.
		cfg.Chaos = point.HookFunc(func(id point.ID, info *point.Info) {
			switch id {
			case point.CoreCommit:
				crash()
			case point.RuntimeProgress:
				if info.Replica == 1 && info.Node == 0 && info.Task == 0 && info.Iter == 3*iters/4 {
					crash()
				}
			}
		})
		if sc.Periodic {
			// The interval is the figure's periodic checkpoint (the weak
			// panel recovers at the next one), but 500 iterations of an 8^3
			// block can end inside their first 8 ms: the pacer makes a
			// round happen every fifth of the job whatever the timer does.
			cfg.CheckpointInterval = 8 * time.Millisecond
			pacer = pacing.New(func() { ctrl.PredictFailure() }, iters/5, cfg.Chaos)
			cfg.Chaos = pacer
		}
		ctrl, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		stats, err := ctrl.Run()
		if err != nil {
			return nil, err
		}
		out = append(out, Fig5Run{Scenario: sc, Events: tl.Events(), Stats: stats})
	}
	return out, nil
}

// FprintFig5 renders the control flow of each scenario.
func FprintFig5(w io.Writer) error {
	runs, err := Fig5()
	if err != nil {
		return err
	}
	writeHeader(w, "Figure 5: ACR control flow under different reliability requirements (live run)")
	for _, r := range runs {
		fmt.Fprintf(w, "%s  [checkpoints=%d hard-errors=%d rollbacks=%d]\n",
			r.Scenario.Name, r.Stats.Checkpoints, r.Stats.HardErrors, r.Stats.Rollbacks)
		for _, e := range r.Events {
			if e.Kind == trace.Progress {
				continue
			}
			fmt.Fprintf(w, "    t=%8.4fs %-10s %s\n", e.Time, e.Kind, e.Detail)
		}
	}
	return nil
}
