// phastsim runs one simulation: an app from the suite, on a machine
// generation, with a memory dependence predictor, and prints the measured
// counters.
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
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/prof"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fatal is the one exit path for errors: message to stderr, non-zero exit.
func fatal(v ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"phastsim:"}, v...)...)
	os.Exit(1)
}

func main() {
	var (
		app          = flag.String("app", "511.povray", "workload name (see -list)")
		predictor    = flag.String("predictor", "phast", "predictor spec (-list names the families)")
		machine      = flag.String("machine", "alderlake", "machine configuration")
		n            = flag.Int("n", sim.DefaultInstructions, "instructions to simulate")
		seed         = flag.Int64("seed", 0, "stream seed override (0 = app default)")
		noFwd        = flag.Bool("no-fwd-filter", false, "disable the §IV-A1 forwarding filter")
		verify       = flag.Bool("verify", false, "check retirement against the in-order architectural oracle (slower; fails on first divergence)")
		bp           = flag.String("bp", "tagescl", "branch predictor (bimodal, gshare, perceptron, tage, tagescl)")
		list         = flag.Bool("list", false, "list apps, machines and predictors, then exit")
		vsIdeal      = flag.Bool("vs-ideal", false, "also run the ideal predictor and report the gap")
		saveTrace    = flag.String("save-trace", "", "write the generated stream to this file and exit")
		loadTrace    = flag.String("load-trace", "", "replay a stream saved with -save-trace instead of generating one")
		simpoints    = flag.Int("simpoints", 0, "simulate k representative intervals instead of the whole stream (SimPoint-style)")
		interval     = flag.Int("interval", 50000, "interval length for -simpoints")
		parIntervals = flag.Int("parallel-intervals", 0, "split the run into this many concurrently-simulated intervals, warmed from oracle checkpoints and stitched under the oracle digest gate (<=1 = sequential)")
		parWarmup    = flag.Int("interval-warmup", 0, "functional warm-up micro-ops per interval for -parallel-intervals (0 = default, negative = none)")
		cacheDir     = flag.String("cache", "", "persistent run-cache directory (empty = always simulate)")
		metrics      = flag.Bool("metrics", false, "print cache/simulation metrics to stderr at exit")
		timeout      = flag.Duration("timeout", 0, "wall-clock budget for the simulation (0 = none)")
		faults       = flag.String("faults", os.Getenv("PHAST_FAULTS"), "fault-injection spec for chaos testing, e.g. \"panic=0.1,seed=7\" (default $PHAST_FAULTS)")
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
		fmt.Fprintln(os.Stderr, "phastsim: fault injection active:", plan)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// simulate routes full runs through the persistent cache when enabled;
	// -load-trace and -simpoints always simulate (their inputs are not part
	// of the content address).
	reg := stats.NewMetrics()
	simulate := func(cfg sim.Config) (*stats.Run, error) { return sim.RunContext(ctx, cfg) }
	if *cacheDir != "" {
		cache := runcache.New(runcache.NewStore(*cacheDir), reg)
		simulate = func(cfg sim.Config) (*stats.Run, error) { return cache.Run(ctx, cfg) }
	}
	finish := func() {
		if *metrics {
			sim.PublishMetrics(reg)
			reg.WriteTo(os.Stderr)
		}
		if err := stopProf(); err != nil {
			fatal("profile:", err)
		}
	}

	if *list {
		fmt.Println("apps:")
		for _, a := range workload.Names() {
			fmt.Println("  " + a)
		}
		fmt.Println("machines:", config.Names())
		var preds []string
		for _, f := range sim.Families() {
			preds = append(preds, f.Name)
		}
		fmt.Println("predictors:", preds, "(argument rules: README, Predictor specs)")
		return
	}

	cfg := sim.Config{
		App: *app, Machine: *machine, Predictor: *predictor,
		Instructions: *n, Seed: *seed, FwdFilterOff: *noFwd, BranchPredictor: *bp,
		Verify: *verify, Intervals: *parIntervals, IntervalWarmup: *parWarmup,
	}

	if *saveTrace != "" {
		tr, err := sim.TraceFor(cfg.App, *n, *seed)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*saveTrace)
		if err == nil {
			err = tr.Encode(f)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d micro-ops of %s to %s\n", tr.Len(), tr.Name, *saveTrace)
		return
	}

	var run *stats.Run
	switch {
	case *simpoints > 0:
		err = runSimpoints(ctx, cfg, *simpoints, *interval)
		if err != nil {
			fatal(err)
		}
		finish()
		return
	case *loadTrace != "":
		run, err = replay(ctx, *loadTrace, cfg)
	default:
		run, err = simulate(cfg)
	}
	if err != nil {
		fatal(err)
	}
	printRun(run)
	if run.OracleDigest != 0 {
		fmt.Printf("stitched %d intervals: oracle digest %#016x matches the sequential in-order execution\n",
			cfg.Normalized().Intervals, run.OracleDigest)
	}
	if *verify {
		fmt.Printf("verified: %d micro-ops retired with oracle-identical architectural results\n", run.Committed)
	}

	if *vsIdeal {
		cfg.Predictor = "ideal"
		ideal, err := simulate(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nideal IPC %.4f; %s reaches %.2f%% of ideal\n",
			ideal.IPC(), *predictor, 100*run.Speedup(ideal))
	}
	finish()
}

// runSimpoints selects k representative intervals of the stream (SimPoint-
// style clustering on PC-frequency signatures, as the paper's methodology
// does on SPEC) and reports the per-interval and weighted-mean IPC.
func runSimpoints(ctx context.Context, cfg sim.Config, k, intervalLen int) error {
	tr, err := sim.TraceFor(cfg.App, cfg.Instructions, cfg.Seed)
	if err != nil {
		return err
	}
	machine, err := config.ByName(cfg.Machine)
	if err != nil {
		return err
	}
	ivs := tr.SelectIntervals(intervalLen, k)
	t := stats.NewTable(fmt.Sprintf("%s — %d SimPoint intervals of %d micro-ops (%s)",
		cfg.App, len(ivs), intervalLen, cfg.Predictor),
		"interval", "weight", "IPC", "violation MPKI", "false dep MPKI")
	weighted := 0.0
	for _, iv := range ivs {
		pred, err := sim.NewPredictor(cfg.Predictor)
		if err != nil {
			return err
		}
		c, err := pipeline.New(machine, pred, pipeline.DefaultOptions())
		if err != nil {
			return err
		}
		res, err := c.RunContext(ctx, tr.Slice(iv))
		if err != nil {
			return err
		}
		weighted += iv.Weight * res.IPC()
		t.AddRowf(fmt.Sprintf("[%d,%d)", iv.Start, iv.End), iv.Weight, res.IPC(),
			res.ViolationMPKI(), res.FalseDepMPKI())
	}
	t.AddRowf("weighted mean", 1.0, weighted, "", "")
	fmt.Print(t)
	return nil
}

// replay runs the simulator over a previously saved stream.
func replay(ctx context.Context, path string, cfg sim.Config) (*stats.Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		return nil, err
	}
	machine, err := config.ByName(cfg.Machine)
	if err != nil {
		return nil, err
	}
	pred, err := sim.NewPredictor(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	opt := pipeline.DefaultOptions()
	if cfg.FwdFilterOff {
		opt.Filter = pipeline.FilterNone
	}
	opt.BranchPredictor = cfg.BranchPredictor
	if cfg.Verify {
		opt.Verify = oracle.NewChecker(tr).Check
	}
	c, err := pipeline.New(machine, pred, opt)
	if err != nil {
		return nil, err
	}
	run, err := c.RunContext(ctx, tr)
	if err != nil {
		return nil, err
	}
	run.Predictor = cfg.Predictor
	return run, nil
}

func printRun(r *stats.Run) {
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
	fmt.Print(t)
}

func pct(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
