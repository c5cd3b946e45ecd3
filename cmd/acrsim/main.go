// Command acrsim regenerates the paper's tables and figures. Model- and
// network-driven figures (1, 6, 7, 8, 9, 10, 11, 12) evaluate instantly;
// Figure 5 executes a live replicated run with an injected failure per
// resilience scheme. -model explores the §5 performance/reliability model
// directly: given a machine and application point, it prints the optimal
// checkpoint period, total execution time, utilization, and undetected-SDC
// probability for the three resilience schemes.
//
// Usage:
//
//	acrsim -fig 8        # one figure
//	acrsim -table 2      # Table 2
//	acrsim -all          # everything
//	acrsim -model -sockets 262144 -delta 180
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"acr/internal/buildinfo"
	"acr/internal/expt"
	"acr/internal/model"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (1, 4, 5, 6, 7, 8, 9, 10, 11, 12)")
	table := flag.Int("table", 0, "table number to regenerate (2)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	ablations := flag.Bool("ablations", false, "run the design-choice ablation studies")
	asCSV := flag.Bool("csv", false, "emit the figure as CSV instead of a formatted table (with -fig)")
	showModel := flag.Bool("model", false, "print the §5 model's scheme table for the point below")
	var (
		w       = flag.Float64("work", 24*3600, "total computation time W in seconds")
		delta   = flag.Float64("delta", 15, "checkpoint time in seconds")
		rh      = flag.Float64("rh", 30, "hard-error restart time in seconds")
		rs      = flag.Float64("rs", 10, "SDC restart time in seconds")
		sockets = flag.Int("sockets", 16384, "sockets per replica")
		mtbf    = flag.Float64("mtbf-years", 50, "per-socket hard-error MTBF in years")
		fit     = flag.Float64("fit", 100, "per-socket SDC rate in FIT")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if buildinfo.HandleFlag(os.Stdout, "acrsim", *showVersion) {
		return
	}

	out := os.Stdout
	run := func(n int) error {
		if *asCSV {
			return expt.WriteCSV(out, n)
		}
		switch n {
		case 1:
			expt.FprintFig1(out)
			return nil
		case 4:
			expt.FprintFig4(out)
			return nil
		case 5:
			return expt.FprintFig5(out)
		case 6:
			expt.FprintFig6(out)
			return nil
		case 7:
			return expt.FprintFig7(out)
		case 8:
			return expt.FprintFig8(out)
		case 9:
			return expt.FprintFig9(out)
		case 10:
			return expt.FprintFig10(out)
		case 11:
			return expt.FprintFig11(out)
		case 12:
			return expt.FprintFig12(out)
		default:
			return fmt.Errorf("unknown figure %d", n)
		}
	}

	var err error
	switch {
	case *all:
		expt.FprintTable2(out)
		for _, n := range []int{1, 4, 6, 7, 8, 9, 10, 11, 12, 5} {
			if err = run(n); err != nil {
				break
			}
		}
		if err == nil {
			err = expt.FprintAblations(out)
		}
	case *ablations:
		err = expt.FprintAblations(out)
	case *showModel:
		err = printModel(out, model.Params{
			W:                   *w,
			Delta:               *delta,
			RH:                  *rh,
			RS:                  *rs,
			SocketsPerReplica:   *sockets,
			HardMTBFSocketYears: *mtbf,
			SDCFITPerSocket:     *fit,
		})
	case *table == 2:
		expt.FprintTable2(out)
	case *fig != 0:
		err = run(*fig)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "acrsim:", err)
		os.Exit(1)
	}
}

// printModel writes the machine's failure rates and, per resilience scheme,
// the optimal checkpoint period with its total time, utilization and
// probability of an undetected SDC.
func printModel(w io.Writer, p model.Params) error {
	fmt.Fprintf(w, "machine: %d sockets/replica, hard MTBF %.3g s, SDC MTBF %.3g s\n",
		p.SocketsPerReplica, p.HardMTBF(), p.SDCMTBF())
	fmt.Fprintf(w, "%-8s %10s %12s %12s %12s\n", "scheme", "tau*(s)", "T(s)", "utilization", "P(undet SDC)")
	for _, s := range model.Schemes() {
		tau, util, err := p.Utilization(s)
		if err != nil {
			return err
		}
		total, err := p.TotalTime(s, tau)
		if err != nil {
			return err
		}
		und, err := p.UndetectedSDCProb(s, tau)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %10.1f %12.0f %12.4f %12.5f\n", s, tau, total, util, und)
	}
	return nil
}
