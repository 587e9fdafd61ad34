// sweep runs parameter sweeps over the simulator: predictor storage budgets
// (the Fig. 13 axis), history lengths of the unlimited predictors (the
// Fig. 6/Fig. 11 axes), or machine generations (the Fig. 2 axis).
//
// Usage:
//
//	sweep -kind budget  -apps 511.povray,502.gcc_1
//	sweep -kind history -n 200000
//	sweep -kind machine -predictor phast
//
// SIGINT cancels in-flight simulations; completed tables stay on stdout and
// the failure log still prints.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/stats"
)

func fatal(v ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"sweep:"}, v...)...)
	os.Exit(1)
}

func main() {
	var (
		kind         = flag.String("kind", "budget", "sweep kind: budget, history, machine")
		n            = flag.Int("n", sim.DefaultInstructions, "instructions per run")
		apps         = flag.String("apps", "", "comma-separated app subset (default: whole suite)")
		predictor    = flag.String("predictor", "phast", "predictor for the machine sweep")
		workers      = flag.Int("workers", 0, "parallel runs")
		parIntervals = flag.Int("parallel-intervals", 0, "split each simulation into this many concurrently-simulated, oracle-gated intervals (<=1 = sequential; see EXPERIMENTS.md)")
		cacheDir     = flag.String("cache", "", "persistent run-cache directory (empty = in-memory only)")
		metrics      = flag.Bool("metrics", false, "print cache, simulation, trace-intern and core-pool metrics to stderr at exit")
		timeout      = flag.Duration("timeout", 0, "wall-clock budget per simulation (0 = none)")
		faults       = flag.String("faults", os.Getenv("PHAST_FAULTS"), "fault-injection spec for chaos testing (default $PHAST_FAULTS)")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	plan, err := faultinject.Parse(*faults)
	if err != nil {
		fatal(err)
	}
	if plan != nil {
		defer faultinject.Activate(plan)()
		fmt.Fprintln(os.Stderr, "sweep: fault injection active:", plan)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.Options{
		Instructions: *n, Out: os.Stdout, Workers: *workers, CacheDir: *cacheDir,
		Context: ctx, RunTimeout: *timeout, Intervals: *parIntervals,
	}
	if *apps != "" {
		opt.Apps = strings.Split(*apps, ",")
	}
	r := experiments.NewRunner(opt)
	defer r.Close()
	switch *kind {
	case "budget":
		err = experiments.Fig13(r)
	case "history":
		if err = experiments.Fig06(r); err == nil {
			err = experiments.Fig11(r)
		}
	case "machine":
		err = machineSweep(r, *predictor)
	default:
		err = fmt.Errorf("unknown sweep kind %q", *kind)
	}
	r.WriteFailures(os.Stderr)
	if *metrics {
		r.WriteMetrics(os.Stderr)
	}
	if err != nil {
		if ctx.Err() != nil {
			fatal("interrupted (completed tables were flushed):", err)
		}
		fatal(err)
	}
	if err := stopProf(); err != nil {
		fatal("profile:", err)
	}
}

func machineSweep(r *experiments.Runner, predictor string) error {
	t := stats.NewTable(fmt.Sprintf("machine sweep — %s", predictor),
		"machine", "year", "IPC/ideal", "MPKI(FN)", "MPKI(FP)")
	gens := config.Generations()
	var variants []sim.Config
	for _, m := range gens {
		variants = append(variants,
			sim.Config{Machine: m.Name, Predictor: "ideal"},
			sim.Config{Machine: m.Name, Predictor: predictor})
	}
	grid, err := r.RunGrid(variants)
	if err != nil {
		return err
	}
	for i, m := range gens {
		fn, fp := experiments.MeanMPKI(grid[2*i+1])
		t.AddRowf(m.Name, m.Year, experiments.GeoIPCvsIdeal(grid[2*i+1], grid[2*i]), fn, fp)
	}
	fmt.Fprintln(r.Opt().Out, t)
	return nil
}
