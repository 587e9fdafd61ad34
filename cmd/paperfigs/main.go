// paperfigs regenerates the tables and figures of the paper's evaluation.
// It is also the sweep front end: each of the paper's parameter sweeps is
// an experiment (storage budget: fig13; history length: fig6, fig11;
// machine generations: fig2a, fig2b), and -config runs any other single
// configuration over the apps.
//
// Usage:
//
//	paperfigs -fig all                 # everything, full suite
//	paperfigs -fig fig15 -n 1000000    # one figure, longer runs
//	paperfigs -fig fig6,fig11          # several, in order, sharing runs
//	paperfigs -fig fig14 -apps 511.povray,541.leela
//	paperfigs -fig all -cache ~/.cache/phast   # persist runs; rerun is ~free
//	paperfigs -fig all -keep-going -timeout 2m # survive bad configs/hangs
//	paperfigs -config '{"Predictor":"phast:1024"}'  # one config, per-app table
//	paperfigs -list
//
// -config renders a single configuration's per-app stats table — the same
// renderer the autotuner (phastd -jobs-dir) uses for a job winner, so
// feeding a winner's config back through paperfigs reproduces its table
// byte-for-byte (jobs_smoke.sh holds this).
//
// Tables go to stdout; progress, metrics (-metrics) and timing go to
// stderr, so repeated invocations with the same flags are byte-comparable.
//
// SIGINT cancels in-flight simulations and exits after flushing whatever
// completed: tables already rendered stay on stdout, the failure log and
// (with -metrics) the counters still print.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, prints tables to stdout and
// progress, metrics and usage to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig          = fs.String("fig", "all", "comma-separated experiments to run in order (fig1..fig16, table1, table2, mix, ...; see -list), or all")
		configJSON   = fs.String("config", "", "render one config's per-app stats table from this JSON sim.Config (overrides -fig)")
		n            = fs.Int("n", sim.DefaultInstructions, "instructions per run")
		apps         = fs.String("apps", "", "comma-separated app subset (default: whole suite)")
		workers      = fs.Int("workers", 0, "parallel runs (default: min(8, NumCPU))")
		parIntervals = fs.Int("parallel-intervals", 0, "split each simulation into this many concurrently-simulated, oracle-gated intervals (<=1 = sequential; see EXPERIMENTS.md)")
		list         = fs.Bool("list", false, "list experiments and exit")
		cacheDir     = fs.String("cache", "", "persistent run-cache directory (empty = in-memory only)")
		metrics      = fs.Bool("metrics", false, "print cache, simulation, trace-intern and core-pool metrics to stderr at exit")
		timeout      = fs.Duration("timeout", 0, "wall-clock budget per simulation (0 = none); a run past it fails with a timeout error")
		keepGoing    = fs.Bool("keep-going", false, "keep running after failures: failed runs become failure-log rows instead of aborting the batch")
		faults       = fs.String("faults", os.Getenv("PHAST_FAULTS"), "fault-injection spec for chaos testing, e.g. \"panic=0.01,diskwrite=0.1,seed=7\" (default $PHAST_FAULTS)")
		cpuprofile   = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.Name, e.Desc)
		}
		return nil
	}

	// Resolve the inputs before anything runs, so a typo costs no
	// simulations.
	var cfg sim.Config
	var exps []experiments.Experiment
	if *configJSON != "" {
		dec := json.NewDecoder(strings.NewReader(*configJSON))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return fmt.Errorf("bad -config: %w", err)
		}
		if cfg.Instructions == 0 {
			cfg.Instructions = *n
		}
	} else if *fig != "all" {
		for _, name := range strings.Split(*fig, ",") {
			e, err := experiments.ByName(name)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}

	plan, err := faultinject.Parse(*faults)
	if err != nil {
		return err
	}
	if plan != nil {
		defer faultinject.Activate(plan)()
		fmt.Fprintln(stderr, "paperfigs: fault injection active:", plan)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.Options{
		Instructions: *n, Out: stdout, Workers: *workers, CacheDir: *cacheDir,
		Context: ctx, RunTimeout: *timeout, KeepGoing: *keepGoing, Intervals: *parIntervals,
	}
	if *apps != "" {
		opt.Apps = strings.Split(*apps, ",")
	}
	r := experiments.NewRunner(opt)
	defer r.Close()

	start := time.Now()
	if *configJSON != "" {
		// Single-config mode: the autotuner's winner-table renderer, run
		// directly over the runner's apps (whole suite when -apps is
		// unset), so a job spec's app list maps 1:1 to -apps. Under
		// -keep-going a failed app is one "failed" row.
		var grid [][]*stats.Run
		grid, err = r.RunGrid([]sim.Config{cfg})
		if err == nil || *keepGoing && ctx.Err() == nil {
			fmt.Fprint(stdout, experiments.ConfigTable(cfg, r.Opt().Apps, grid[0]))
			err = nil
		}
	} else {
		err = experiments.RunAll(r, exps...)
	}
	// Flush observability before deciding the exit code, so an aborted run
	// still reports what failed and what it managed to do.
	r.WriteFailures(stderr)
	if *metrics {
		r.WriteMetrics(stderr)
	}
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted (completed tables were flushed): %w", err)
		}
		return err
	}
	if err := stopProf(); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	fmt.Fprintf(stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
