// phastsim runs one simulation: an app from the suite, on a machine
// generation, with a memory dependence predictor, and prints the measured
// counters. A stream saved with -save-trace replays with -load-trace, and
// -simpoints runs k representative intervals instead of the whole stream;
// both go through the same run path, flags and run cache as -app.
//
// Usage:
//
//	phastsim -app 511.povray -predictor phast -machine alderlake -n 300000
//	phastsim -list
//
// SIGINT cancels the simulation; -timeout bounds its wall-clock time.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/prof"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "phastsim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, prints tables to stdout and
// progress, metrics and usage to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("phastsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app          = fs.String("app", "511.povray", "workload name (see -list)")
		predictor    = fs.String("predictor", "phast", "predictor spec (-list names the families)")
		machine      = fs.String("machine", "alderlake", "machine configuration")
		n            = fs.Int("n", sim.DefaultInstructions, "instructions to simulate")
		seed         = fs.Int64("seed", 0, "stream seed override (0 = app default)")
		noFwd        = fs.Bool("no-fwd-filter", false, "disable the §IV-A1 forwarding filter")
		verify       = fs.Bool("verify", false, "check retirement against the in-order architectural oracle (slower; fails on first divergence)")
		bp           = fs.String("bp", "tagescl", "branch predictor (bimodal, gshare, perceptron, tage, tagescl)")
		list         = fs.Bool("list", false, "list apps, machines and predictors, then exit")
		vsIdeal      = fs.Bool("vs-ideal", false, "also run the ideal predictor and report the gap")
		saveTrace    = fs.String("save-trace", "", "write the generated stream to this file and exit")
		loadTrace    = fs.String("load-trace", "", "replay the whole stream saved with -save-trace instead of generating one")
		simpoints    = fs.Int("simpoints", 0, "simulate k representative intervals instead of the whole stream (SimPoint-style)")
		interval     = fs.Int("interval", 50000, "interval length for -simpoints")
		parIntervals = fs.Int("parallel-intervals", 0, "split the run into this many concurrently-simulated intervals, warmed from oracle checkpoints and stitched under the oracle digest gate (<=1 = sequential)")
		parWarmup    = fs.Int("interval-warmup", 0, "functional warm-up micro-ops per interval for -parallel-intervals (0 = default, negative = none)")
		cacheDir     = fs.String("cache", "", "persistent run-cache directory (empty = always simulate)")
		metrics      = fs.Bool("metrics", false, "print cache/simulation metrics to stderr at exit")
		timeout      = fs.Duration("timeout", 0, "wall-clock budget for the simulation (0 = none)")
		faults       = fs.String("faults", os.Getenv("PHAST_FAULTS"), "fault-injection spec for chaos testing, e.g. \"panic=0.1,seed=7\" (default $PHAST_FAULTS)")
		cpuprofile   = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	plan, err := faultinject.Parse(*faults)
	if err != nil {
		return err
	}
	if plan != nil {
		defer faultinject.Activate(plan)()
		fmt.Fprintln(stderr, "phastsim: fault injection active:", plan)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// simulate is every mode's one run path, through the persistent cache
	// when enabled.
	reg := stats.NewMetrics()
	simulate := func(cfg sim.Config) (*stats.Run, error) { return sim.RunContext(ctx, cfg) }
	if *cacheDir != "" {
		cache := runcache.New(runcache.NewStore(*cacheDir), reg)
		simulate = func(cfg sim.Config) (*stats.Run, error) { return cache.Run(ctx, cfg) }
	}
	finish := func() error {
		if *metrics {
			sim.PublishMetrics(reg)
			reg.WriteTo(stderr)
		}
		if err := stopProf(); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		return nil
	}

	if *list {
		fmt.Fprintln(stdout, "apps:")
		for _, a := range workload.Names() {
			fmt.Fprintln(stdout, "  "+a)
		}
		fmt.Fprintln(stdout, "machines:", config.Names())
		var preds []string
		for _, f := range sim.Families() {
			preds = append(preds, f.Name)
		}
		fmt.Fprintln(stdout, "predictors:", preds, "(argument rules: README, Predictor specs)")
		return nil
	}

	cfg := sim.Config{
		App: *app, Machine: *machine, Predictor: *predictor,
		Instructions: *n, Seed: *seed, FwdFilterOff: *noFwd, BranchPredictor: *bp,
		Verify: *verify, Intervals: *parIntervals, IntervalWarmup: *parWarmup,
	}

	if *saveTrace != "" {
		tr, err := sim.TraceFor(cfg.App, *n, *seed)
		if err != nil {
			return err
		}
		f, err := os.Create(*saveTrace)
		if err == nil {
			err = tr.Encode(f)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d micro-ops of %s to %s\n", tr.Len(), tr.Name, *saveTrace)
		return nil
	}

	if *loadTrace != "" {
		tr, err := decodeFile(*loadTrace)
		if err != nil {
			return err
		}
		if cfg.App, err = provide(tr); err != nil {
			return err
		}
		cfg.Instructions = tr.Len()
	}
	if *simpoints > 0 {
		if err := runSimpoints(stdout, simulate, cfg, *simpoints, *interval); err != nil {
			return err
		}
		return finish()
	}

	run, err := simulate(cfg)
	if err != nil {
		return err
	}
	printRun(stdout, run)
	if run.OracleDigest != 0 {
		fmt.Fprintf(stdout, "stitched %d intervals: oracle digest %#016x matches the sequential in-order execution\n",
			cfg.Normalized().Intervals, run.OracleDigest)
	}
	if *verify {
		fmt.Fprintf(stdout, "verified: %d micro-ops retired with oracle-identical architectural results\n", run.Committed)
	}

	if *vsIdeal {
		cfg.Predictor = "ideal"
		ideal, err := simulate(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nideal IPC %.4f; %s reaches %.2f%% of ideal\n",
			ideal.IPC(), *predictor, 100*run.Speedup(ideal))
	}
	return finish()
}

// decodeFile reads a stream saved with -save-trace.
func decodeFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Decode(f)
}

// provide registers a stream with sim under its content address and returns
// the app name that runs it, so its runs share run-cache keys with an
// upload of the same stream to phastd.
func provide(tr *trace.Trace) (string, error) {
	_, digest, err := tracestore.Canonical(tr)
	if err != nil {
		return "", err
	}
	sim.ProvideTrace(digest, tr)
	return sim.TraceAppPrefix + digest, nil
}

// runSimpoints selects k representative intervals of the stream (SimPoint-
// style clustering on PC-frequency signatures, as the paper's methodology
// does on SPEC) and reports the per-interval and weighted-mean IPC. Each
// interval runs cold, as a stream of its own.
func runSimpoints(w io.Writer, simulate func(sim.Config) (*stats.Run, error), cfg sim.Config, k, intervalLen int) error {
	tr, err := sim.TraceFor(cfg.App, cfg.Instructions, cfg.Seed)
	if err != nil {
		return err
	}
	ivs := tr.SelectIntervals(intervalLen, k)
	t := stats.NewTable(fmt.Sprintf("%s — %d SimPoint intervals of %d micro-ops (%s)",
		tr.Name, len(ivs), intervalLen, cfg.Predictor),
		"interval", "weight", "IPC", "violation MPKI", "false dep MPKI")
	weighted := 0.0
	for _, iv := range ivs {
		slice := tr.Slice(iv)
		if cfg.App, err = provide(slice); err != nil {
			return err
		}
		cfg.Instructions = slice.Len()
		res, err := simulate(cfg)
		if err != nil {
			return err
		}
		weighted += iv.Weight * res.IPC()
		t.AddRowf(fmt.Sprintf("[%d,%d)", iv.Start, iv.End), iv.Weight, res.IPC(),
			res.ViolationMPKI(), res.FalseDepMPKI())
	}
	t.AddRowf("weighted mean", 1.0, weighted, "", "")
	fmt.Fprint(w, t)
	return nil
}

func printRun(w io.Writer, r *stats.Run) {
	t := stats.NewTable(fmt.Sprintf("%s / %s / %s", r.App, r.Machine, r.Predictor),
		"metric", "value")
	t.AddRowf("instructions", r.Committed)
	t.AddRowf("cycles", r.Cycles)
	t.AddRow("IPC", fmt.Sprintf("%.4f", r.IPC()))
	t.AddRowf("loads", r.Loads)
	t.AddRowf("stores", r.Stores)
	t.AddRowf("store-to-load forwards", r.Forwards)
	t.AddRowf("memory order violations", r.MemOrderViolations)
	t.AddRow("violation MPKI", fmt.Sprintf("%.4f", r.ViolationMPKI()))
	t.AddRowf("false dependencies", r.FalseDependencies)
	t.AddRow("false dependence MPKI", fmt.Sprintf("%.4f", r.FalseDepMPKI()))
	t.AddRowf("true dependencies (correct waits)", r.TrueDependencies)
	t.AddRow("branch MPKI", fmt.Sprintf("%.4f", r.BranchMPKI()))
	t.AddRowf("squashed micro-ops", r.SquashedUops)
	t.AddRowf("re-fetched micro-ops", r.Fetched-r.Committed)
	t.AddRowf("issued micro-ops", r.IssuedUops)
	t.AddRowf("predictor reads", r.PredictorReads)
	t.AddRowf("predictor writes", r.PredictorWrites)
	if r.PathsTracked > 0 {
		t.AddRowf("paths tracked", r.PathsTracked)
	}
	t.AddRow("avg ROB occupancy", fmt.Sprintf("%.1f", r.AvgROBOccupancy()))
	t.AddRow("avg SQ occupancy", fmt.Sprintf("%.1f", r.AvgSQOccupancy()))
	t.AddRow("L1D hit rate", fmt.Sprintf("%.2f%%", pct(r.L1DHits, r.L1DMisses)))
	t.AddRow("L2 hit rate", fmt.Sprintf("%.2f%%", pct(r.L2Hits, r.L2Misses)))
	t.AddRow("L3 hit rate", fmt.Sprintf("%.2f%%", pct(r.L3Hits, r.L3Misses)))
	fmt.Fprint(w, t)
}

func pct(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
