package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mdp"
	"repro/internal/oracle"
	"repro/internal/parsim"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// memboundApps run at IPC 0.1-0.6: most simulated cycles retire nothing, so
// the cycle loop and the cache hierarchy do most of the host work.
var memboundApps = []string{"505.mcf", "520.omnetpp", "523.xalancbmk", "541.leela"}

// intervalApps pair a core-bound app, where interval warm-up misses most,
// with a memory-bound one, where two intervals pay off.
var intervalApps = []string{"511.povray", "505.mcf"}

// intervalParts is the interval count of sim-interval: a constant, so the
// stitched output is the same on every host.
const intervalParts = 2

// splitmix is a 64-bit mixing function; the benchmark derives every input
// from --seed through it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamSeed derives an app's stream seed from the workload seed. It is
// never 0, which would select the app's built-in default stream.
func streamSeed(seed int64, app string) int64 {
	h := fnv.New64a()
	h.Write([]byte(app))
	return int64(splitmix(uint64(seed)^h.Sum64())>>2) | 1
}

// simConfigs builds one phast config per app at n micro-ops.
func simConfigs(seed int64, apps []string, n, intervals int) []sim.Config {
	cfgs := make([]sim.Config, len(apps))
	for i, app := range apps {
		cfgs[i] = sim.Config{App: app, Machine: "alderlake", Predictor: "phast",
			Instructions: n, Seed: streamSeed(seed, app), Intervals: intervals}.Normalized()
	}
	return cfgs
}

// setupReps is how many times a full-size run repeats its set-up; setup_s
// is the median. The first setupBefore repetitions run before the measured
// section and the rest after it, so the median samples host speed over the
// whole run, as the measured figures do.
func setupReps(b *bench) int {
	if b.tiny {
		return 1
	}
	return 5
}

func setupBefore(b *bench) int { return setupReps(b) - setupReps(b)/2 }

// streamKey names one generated stream.
type streamKey struct {
	app  string
	n    int
	seed int64
}

// simSetUp is the set-up of a sim workload: it generates every distinct
// stream of the workload's configs with its prefix structures, then
// computes the reference rows of refCfgs on freshly built cores over those
// streams, NumCPU goroutines at a time, as a sweep would. Every repetition
// does the same work from scratch and must compute the same rows.
type simSetUp struct {
	keys    []streamKey
	refCfgs []sim.Config
	refs    []*stats.Run // the first repetition's rows
	times   []float64
}

// beginSetUp runs the repetitions that precede the measured section. Then,
// untimed, it interns the streams in sim's pool, where the measured runs
// find them; with tracing on it records a workload.gen span around each
// sim.TraceFor (an intern miss) and a trace.pre span around Trace.Pre.
func beginSetUp(b *bench, cfgs, refCfgs []sim.Config) (*simSetUp, error) {
	s := &simSetUp{refCfgs: refCfgs}
	seen := map[streamKey]bool{}
	for _, c := range cfgs {
		k := streamKey{c.App, c.Instructions, c.Seed}
		if !seen[k] {
			seen[k] = true
			s.keys = append(s.keys, k)
		}
	}
	for r := 0; r < setupBefore(b); r++ {
		if err := s.once(b); err != nil {
			return nil, err
		}
	}
	err := parallel(len(s.keys), func(i int) error {
		k := s.keys[i]
		var tr *trace.Trace
		var err error
		b.tr.record("workload.gen", 0, func(int64) { tr, err = sim.TraceFor(k.app, k.n, k.seed) })
		if err == nil {
			b.tr.record("trace.pre", 0, func(int64) { tr.Pre() })
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		b.setLayer("workload.gen_ms", meanMs(b.tr.spans("workload.gen")), "ms")
		b.setLayer("trace.pre_ms", meanMs(b.tr.spans("trace.pre")), "ms")
	}
	return s, nil
}

// finish ends the measured section: it runs the repetitions that follow it
// and sets setup_s.
func (s *simSetUp) finish(b *bench) error {
	b.measured()
	for len(s.times) < setupReps(b) {
		if err := s.once(b); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "phastbench: %s: set-up seconds %.3f\n", b.name, s.times)
	b.setE2E("setup_s", median(append([]float64(nil), s.times...)), "s")
	return nil
}

// once runs one set-up repetition.
func (s *simSetUp) once(b *bench) error {
	t0 := time.Now()
	traces := make([]*trace.Trace, len(s.keys))
	err := parallel(len(s.keys), func(i int) error {
		k := s.keys[i]
		prog, err := workload.ByName(k.app)
		if err == nil {
			traces[i] = trace.Generate(prog, k.n, k.seed)
			traces[i].Pre()
		}
		return err
	})
	if err != nil {
		return err
	}
	traceOf := map[streamKey]*trace.Trace{}
	for i, k := range s.keys {
		traceOf[k] = traces[i]
	}
	rows := make([]*stats.Run, len(s.refCfgs))
	err = parallel(len(s.refCfgs), func(i int) error {
		cfg := s.refCfgs[i]
		tr, ok := traceOf[streamKey{cfg.App, cfg.Instructions, cfg.Seed}]
		if !ok {
			return fmt.Errorf("%s: no stream generated for the reference config", cfg.App)
		}
		var err error
		rows[i], err = freshRun(cfg, tr)
		return err
	})
	if err != nil {
		return fmt.Errorf("reference runs: %w", err)
	}
	s.times = append(s.times, time.Since(t0).Seconds())
	if s.refs == nil {
		s.refs = rows
		return nil
	}
	for i := range rows {
		b.attempt(1)
		if *rows[i] != *s.refs[i] {
			b.fail("%s/%s: set-up repetition %d computed a different reference row", s.refCfgs[i].App, s.refCfgs[i].Predictor, len(s.times))
		}
	}
	return nil
}

// parallel calls fn(0..n-1) on NumCPU goroutines and returns the first
// error by index.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// coreOptions maps a config onto pipeline options the way sim does, for the
// default-option configs the benchmark runs on its own cores.
func coreOptions(cfg sim.Config) (config.Machine, pipeline.Options, error) {
	if cfg.FwdFilterOff || cfg.SVWFilter || cfg.TrainAtDetect || cfg.Intervals > 1 || cfg.Verify {
		return config.Machine{}, pipeline.Options{}, fmt.Errorf("own-core runs support default pipeline options only, got %+v", cfg)
	}
	machine, err := config.ByName(cfg.Machine)
	opt := pipeline.DefaultOptions()
	opt.BranchPredictor = cfg.BranchPredictor
	return machine, opt, err
}

// freshRun simulates cfg over tr on a freshly built core, as sim.RunCore
// does over the interned stream.
func freshRun(cfg sim.Config, tr *trace.Trace) (*stats.Run, error) {
	machine, opt, err := coreOptions(cfg)
	if err != nil {
		return nil, err
	}
	pred, err := sim.NewPredictor(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	c, err := pipeline.New(machine, pred, opt)
	if err != nil {
		return nil, err
	}
	run, err := c.Run(tr)
	if err != nil {
		return nil, err
	}
	run.Predictor = cfg.Predictor
	return run, nil
}

func meanMs(ss []span) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.dur()) / 1e6
	}
	return mean(xs)
}

// passStats are the timings of the measured passes over a config list.
type passStats struct {
	perCfg [][]float64 // seconds of each config's run, one entry per pass
	passes []float64   // seconds of each whole pass
}

// uopsPerSec is the simulated micro-ops of one pass over the fast-quartile
// pass time.
func (p passStats) uopsPerSec(refs []*stats.Run) float64 {
	var uops float64
	for _, r := range refs {
		uops += float64(r.Committed)
	}
	return uops / fastQuartile(p.passes)
}

// timedPasses runs every config through run, pass after pass, until the
// measured time is spent (at least one pass), and checks every row against
// its reference: simulated output must repeat bit for bit. Within a pass,
// workers goroutines take the configs in order.
func timedPasses(b *bench, cfgs []sim.Config, refs []*stats.Run, workers int, run func(sim.Config) (*stats.Run, error)) passStats {
	p := passStats{perCfg: make([][]float64, len(cfgs))}
	start := time.Now()
	for len(p.passes) == 0 || time.Since(start)+time.Duration(mean(p.passes)*float64(time.Second)/2) < b.seconds {
		t0 := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(cfgs); i = int(next.Add(1) - 1) {
					s := time.Now()
					got, err := run(cfgs[i])
					d := time.Since(s).Seconds()
					b.attempt(1)
					switch {
					case err != nil:
						b.fail("%s: %v", cfgs[i].App, err)
					case *got != *refs[i]:
						b.fail("%s: row differs from its reference:\n got  %+v\n want %+v", cfgs[i].App, *got, *refs[i])
					}
					p.perCfg[i] = append(p.perCfg[i], d)
				}
			}()
		}
		wg.Wait()
		p.passes = append(p.passes, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "phastbench: %s: pass seconds %.3f\n", b.name, p.passes)
	return p
}

// runMembound is the sim-membound workload: sequential (not interval-split)
// sim.Run with PHAST over memory-bound apps, NumCPU runs at a time as a
// sweep's worker pool runs them. One run at a time leaves the other CPU
// idle, and on a shared 2-CPU host that made the pass time swing by ±15%
// from minute to minute, against ±5% with both CPUs busy.
func runMembound(b *bench) error {
	n := 100_000
	if b.tiny {
		n = 20_000
	}
	cfgs := simConfigs(b.seed, memboundApps, n, 0)
	// The references come from freshly built cores; the measured runs use
	// sim's core pool, so the comparison also covers pooled-core reuse.
	su, err := beginSetUp(b, cfgs, cfgs)
	if err != nil {
		return err
	}
	refs := su.refs
	p := timedPasses(b, cfgs, refs, runtime.NumCPU(), sim.Run)
	b.setE2E("uops_per_s", p.uopsPerSec(refs), "uop/s")
	b.setE2E("wall_s", fastQuartile(p.passes), "s")
	if err := su.finish(b); err != nil {
		return err
	}
	if b.tr != nil {
		if _, err := coreLayers(b, cfgs, refs); err != nil {
			return err
		}
		b.setLayer("sim.rows_digest", rowsDigest(refs), "hash")
	}
	return nil
}

// runInterval is the sim-interval workload: sim.Run split into two
// oracle-checkpointed intervals, over a core-bound and a memory-bound app.
// The stitched rows are gated by parsim's digest check; the benchmark adds
// repeat identity.
func runInterval(b *bench) error {
	n := 300_000
	if b.tiny {
		n = 40_000
	}
	cfgs := simConfigs(b.seed, intervalApps, n, intervalParts)
	// Set-up computes the sequential reference runs the traced run compares
	// the stitched IPC against.
	seqCfgs := simConfigs(b.seed, intervalApps, n, 0)
	su, err := beginSetUp(b, cfgs, seqCfgs)
	if err != nil {
		return err
	}
	seqRefs := su.refs
	refs := make([]*stats.Run, len(cfgs))
	for i, cfg := range cfgs {
		run, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("reference %s: %w", cfg.App, err)
		}
		if run.OracleDigest == 0 {
			return fmt.Errorf("reference %s: interval run carries no oracle digest", cfg.App)
		}
		refs[i] = run
	}
	// Each interval run already uses every CPU; runs go one at a time.
	p := timedPasses(b, cfgs, refs, 1, sim.Run)
	b.setE2E("uops_per_s", p.uopsPerSec(refs), "uop/s")
	b.setE2E("wall_s", fastQuartile(p.passes), "s")
	if err := su.finish(b); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	b.setLayer("sim.rows_digest", rowsDigest(refs), "hash")

	seq, err := coreLayers(b, seqCfgs, seqRefs)
	if err != nil {
		return err
	}
	var errs []float64
	var seqSecs, parSecs float64
	for i, cfg := range cfgs {
		stitched, err := tracedIntervalRun(b, cfg)
		if err != nil {
			return err
		}
		b.attempt(1)
		if *stitched != *refs[i] {
			b.fail("%s: traced interval row differs from the untraced one:\n got  %+v\n want %+v", cfg.App, *stitched, *refs[i])
		}
		e := 100 * math.Abs(stitched.IPC()/seq[i].run.IPC()-1)
		b.setLayer("parsim.ipc_err_pct."+cfg.App, e, "%")
		errs = append(errs, e)
		seqSecs += seq[i].simNs / 1e9
		parSecs += median(append([]float64(nil), p.perCfg[i]...))
	}
	b.setLayer("parsim.ipc_err_pct", mean(errs), "%")
	b.setLayer("parsim.speedup", seqSecs/parSecs, "ratio")
	ivs := b.tr.spans("parsim.interval")
	var ms []float64
	for _, s := range ivs {
		ms = append(ms, float64(s.dur())/1e6)
	}
	b.setLayer("parsim.interval_ms_mean", mean(ms), "ms")
	b.setLayer("parsim.interval_ms_max", quantile(ms, 1), "ms")
	b.setLayer("oracle.checkpoint_ms", meanMs(b.tr.spans("oracle.CheckpointPass")), "ms")
	return nil
}

// tracedIntervalRun runs one interval config through parsim directly, with
// a Job built the way sim builds it, timing the checkpoint pass and each
// interval from GetCore to PutCore.
func tracedIntervalRun(b *bench, cfg sim.Config) (*stats.Run, error) {
	machine, err := config.ByName(cfg.Machine)
	if err != nil {
		return nil, err
	}
	tr, err := sim.TraceFor(cfg.App, cfg.Instructions, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var starts []int
	for _, iv := range tr.SplitN(cfg.Intervals) {
		starts = append(starts, iv.Start)
	}
	b.tr.record("oracle.CheckpointPass", 0, func(int64) { oracle.CheckpointPass(tr, starts) })

	opt := pipeline.DefaultOptions()
	var mu sync.Mutex
	begun := map[*pipeline.Core][2]int64{}
	var res *parsim.Result
	b.tr.record("parsim.Run", 0, func(parent int64) {
		job := parsim.Job{
			Machine:      machine,
			Options:      opt,
			NewPredictor: func() (mdp.Predictor, error) { return sim.NewPredictor(cfg.Predictor) },
			GetCore: func(pred mdp.Predictor) (*pipeline.Core, error) {
				id, start := b.tr.begin()
				c, err := pipeline.New(machine, pred, opt)
				if err == nil {
					mu.Lock()
					begun[c] = [2]int64{id, start}
					mu.Unlock()
				}
				return c, err
			},
			PutCore: func(c *pipeline.Core) {
				mu.Lock()
				s := begun[c]
				mu.Unlock()
				b.tr.end(s[0], s[1], "parsim.interval", parent, cfg.App, 0, 0)
			},
		}
		res, err = parsim.Run(context.Background(), tr, job, parsim.Plan{
			Intervals: cfg.Intervals, Warmup: cfg.IntervalWarmup,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("traced interval run %s: %w", cfg.App, err)
	}
	run := res.Run
	run.Predictor = cfg.Predictor
	return &run, nil
}

// simSample is one config's measurement: an untraced sim.Run, and a plain
// and a traced Core.Run of the same config on the same reused core, the
// traced one with a timed predictor.
type simSample struct {
	cfg        sim.Config
	run        *stats.Run
	simNs      float64 // untraced sim.Run host time
	allocBytes float64 // heap bytes allocated by the untraced sim.Run
	coreNs     float64 // plain Core.Run host time
	tracedNs   float64 // traced Core.Run host time
	mdpCalls   float64
	mdpNs      float64 // estimated host time inside the predictor
}

// coreLayers measures the simulator's inner layers on cfgs: per config an
// untraced sim.Run (host time and allocations), a plain Core.Run and a
// traced one (predictor time) on the same pooled core, each coreRounds
// times with the medians kept, plus branch-predictor and cache-hierarchy
// replays of each stream. It sets the sim, pipeline, mdp, bpred and cache
// metrics and the tracing overhead on µops/s (traced against plain
// Core.Run), and prints the cost table.
// refs, when given, are the rows every run must reproduce bit for bit;
// otherwise the first untraced sim.Run row is the reference for the others.
func coreLayers(b *bench, cfgs []sim.Config, refs []*stats.Run) ([]simSample, error) {
	clock := clockCost()
	rounds := 3
	if b.tiny {
		rounds = 1
	}
	samples := make([]simSample, len(cfgs))
	for i, cfg := range cfgs {
		var ref *stats.Run
		if refs != nil {
			ref = refs[i]
		}
		var got []simSample
		for r := 0; r < rounds; r++ {
			// The order reverses from one round to the next, so drift in
			// host speed does not favour any of the three runs.
			s, err := measureConfig(b, cfg, ref, (i+r)%2 == 1, clock)
			if err != nil {
				return nil, err
			}
			if ref == nil {
				ref = s.run
			}
			got = append(got, s)
		}
		samples[i] = got[0]
		for _, f := range []func(*simSample) *float64{
			func(s *simSample) *float64 { return &s.simNs },
			func(s *simSample) *float64 { return &s.allocBytes },
			func(s *simSample) *float64 { return &s.coreNs },
			func(s *simSample) *float64 { return &s.tracedNs },
			func(s *simSample) *float64 { return &s.mdpNs },
		} {
			xs := make([]float64, len(got))
			for j := range got {
				xs[j] = *f(&got[j])
			}
			*f(&samples[i]) = median(xs)
		}
	}

	// Replays of each distinct stream through the branch unit and the cache
	// hierarchy alone, timed as a whole: their per-event cost times the
	// run's event counts estimates each layer's share of a simulated µop.
	var brNs, brN, cacheNs, cacheN float64
	type key struct {
		app  string
		n    int
		seed int64
	}
	replayed := map[key]bool{}
	for _, s := range samples {
		k := key{s.cfg.App, s.cfg.Instructions, s.cfg.Seed}
		if replayed[k] {
			continue
		}
		replayed[k] = true
		tr, err := sim.TraceFor(k.app, k.n, k.seed)
		if err != nil {
			return nil, err
		}
		machine, err := config.ByName(s.cfg.Machine)
		if err != nil {
			return nil, err
		}
		dir, err := bpred.NewDir(s.cfg.BranchPredictor)
		if err != nil {
			return nil, err
		}
		// Each replay runs twice and the second is timed, so first-touch
		// page faults of the fresh tables stay out of the per-event cost.
		u := bpred.NewUnit(dir)
		insts := tr.Insts
		var branches int64
		replayBranches := func() {
			for j := range insts {
				if insts[j].IsBranch() {
					u.PredictAndTrain(&insts[j])
					branches++
				}
			}
		}
		replayBranches()
		branches = 0
		sp := b.tr.record("bpred.replay", 0, func(int64) { replayBranches() })
		brNs += float64(sp.dur())
		brN += float64(branches)
		h := cache.New(machine)
		var accesses int64
		replayAccesses := func() {
			for j := range insts {
				switch {
				case insts[j].IsLoad():
					h.Load(uint64(j), insts[j].PC, insts[j].Addr)
					accesses++
				case insts[j].IsStore():
					h.StoreDrain(uint64(j), insts[j].Addr)
					accesses++
				}
			}
		}
		replayAccesses()
		h.Reset()
		accesses = 0
		sp = b.tr.record("cache.replay", 0, func(int64) { replayAccesses() })
		cacheNs += float64(sp.dur())
		cacheN += float64(accesses)
	}

	var sum stats.Run
	var simNs, allocB, coreNs, tracedNs, calls, mdpNs float64
	perPred := map[string][2]float64{}
	for _, s := range samples {
		addRun(&sum, s.run)
		simNs += s.simNs
		allocB += s.allocBytes
		coreNs += s.coreNs
		tracedNs += s.tracedNs
		calls += s.mdpCalls
		mdpNs += s.mdpNs
		pp := perPred[s.cfg.Predictor]
		perPred[s.cfg.Predictor] = [2]float64{pp[0] + s.mdpNs, pp[1] + s.mdpCalls}
	}
	uops := float64(sum.Committed)
	nsPerBranch := brNs / brN
	nsPerAccess := cacheNs / cacheN
	simPerUop := simNs / uops
	corePerUop := coreNs / uops
	mdpPerUop := mdpNs / uops
	bpredPerUop := nsPerBranch * float64(sum.Branches) / uops
	cachePerUop := nsPerAccess * float64(sum.Loads+sum.Stores) / uops
	selfPerUop := corePerUop - mdpPerUop - bpredPerUop - cachePerUop
	unaccounted := 100 * (simPerUop - corePerUop) / simPerUop

	b.setLayer("sim.ns_per_uop", simPerUop, "ns")
	b.setLayer("sim.ns_per_cycle", simNs/float64(sum.Cycles), "ns")
	b.setLayer("sim.alloc_bytes_per_uop", allocB/uops, "B")
	b.setLayer("sim.unaccounted_pct", unaccounted, "%")
	b.setLayer("pipeline.ipc", sum.IPC(), "uop/cycle")
	b.setLayer("pipeline.issued_per_commit", float64(sum.IssuedUops)/uops, "ratio")
	b.setLayer("pipeline.squashed_per_kuop", sum.MPKI(sum.SquashedUops), "1/kuop")
	b.setLayer("pipeline.rob_occupancy", sum.AvgROBOccupancy(), "uop")
	b.setLayer("pipeline.self_ns_per_uop", selfPerUop, "ns")
	b.setLayer("mdp.calls_per_kuop", calls*1000/uops, "1/kuop")
	b.setLayer("mdp.ns_per_call", mdpNs/calls, "ns")
	for pred, v := range perPred {
		b.setLayer("mdp."+pred+".ns_per_call", v[0]/v[1], "ns")
	}
	b.setLayer("mdp.share_pct", 100*mdpPerUop/simPerUop, "%")
	b.setLayer("mdp.violation_mpki", sum.ViolationMPKI(), "1/kuop")
	b.setLayer("mdp.false_dep_mpki", sum.FalseDepMPKI(), "1/kuop")
	b.setLayer("mdp.table_accesses_per_kuop", sum.MPKI(sum.PredictorReads+sum.PredictorWrites), "1/kuop")
	b.setLayer("bpred.ns_per_branch", nsPerBranch, "ns")
	b.setLayer("bpred.mpki", sum.BranchMPKI(), "1/kuop")
	b.setLayer("cache.ns_per_access", nsPerAccess, "ns")
	b.setLayer("cache.l1d_miss_ratio", ratio(sum.L1DMisses, sum.L1DHits+sum.L1DMisses), "ratio")
	b.setLayer("cache.l2_miss_ratio", ratio(sum.L2Misses, sum.L2Hits+sum.L2Misses), "ratio")
	b.setLayer("cache.l3_mpki", sum.MPKI(sum.L3Misses), "1/kuop")
	b.setLayer("trace.overhead.uops_per_s", uops/(tracedNs/1e9)-uops/(coreNs/1e9), "uop/s")

	t := stats.NewTable(fmt.Sprintf("cost table: %s, %d runs, %.0f µops, host ns per committed µop", b.name, len(samples), uops),
		"layer", "ns/µop", "share", "from")
	row := func(name string, v float64, from string) {
		t.AddRow(name, fmt.Sprintf("%.1f", v), fmt.Sprintf("%.1f%%", 100*v/simPerUop), from)
	}
	row("mdp", mdpPerUop, fmt.Sprintf("%.1f ns/call x %.0f calls/kµop (sampled in-run)", mdpNs/calls, calls*1000/uops))
	row("bpred", bpredPerUop, fmt.Sprintf("%.1f ns/branch x %.0f branches/kµop (replay)", nsPerBranch, sum.MPKI(sum.Branches)))
	row("cache", cachePerUop, fmt.Sprintf("%.1f ns/access x %.0f accesses/kµop (replay)", nsPerAccess, sum.MPKI(sum.Loads+sum.Stores)))
	row("pipeline (residual)", selfPerUop, "plain Core.Run - mdp - bpred - cache")
	row("outside core loop", simPerUop-corePerUop, "sim.Run - plain Core.Run (sim.unaccounted_pct)")
	row("sim.Run", simPerUop, "untraced sim.Run")
	row("tracing overhead", (tracedNs-coreNs)/uops, "traced Core.Run - plain Core.Run")
	fmt.Print(t)
	return samples, nil
}

// measureConfig runs cfg once each as an untraced sim.Run, a plain
// Core.Run and a traced Core.Run, in that order or reversed, and checks each
// row against ref (the sim.Run row when ref is nil).
func measureConfig(b *bench, cfg sim.Config, ref *stats.Run, reverse bool, clock float64) (simSample, error) {
	var m0, m1 runtime.MemStats
	var run, plain, traced *stats.Run
	var tp *timedPredictor
	var coreNs, tracedNs float64
	var sp span
	var err, perr, terr error
	steps := []func(){
		func() {
			runtime.ReadMemStats(&m0)
			sp = b.tr.record("sim.Run", 0, func(int64) { run, err = sim.Run(cfg) })
			runtime.ReadMemStats(&m1)
		},
		func() { plain, _, coreNs, perr = coreRun(b, cfg, false) },
		func() { traced, tp, tracedNs, terr = coreRun(b, cfg, true) },
	}
	for j := range steps {
		if reverse {
			j = len(steps) - 1 - j
		}
		steps[j]()
	}
	if err != nil {
		return simSample{}, fmt.Errorf("%s: %w", cfg.App, err)
	}
	if perr != nil {
		return simSample{}, perr
	}
	if terr != nil {
		return simSample{}, terr
	}
	if ref == nil {
		ref = run
	}
	b.attempt(3)
	if *run != *ref {
		b.fail("%s/%s: sim.Run row differs from its reference", cfg.App, cfg.Predictor)
	}
	if *plain != *ref {
		b.fail("%s/%s: Core.Run row differs from the sim.Run one:\n got  %+v\n want %+v", cfg.App, cfg.Predictor, *plain, *ref)
	}
	if *traced != *ref {
		b.fail("%s/%s: traced row differs from the untraced one:\n got  %+v\n want %+v", cfg.App, cfg.Predictor, *traced, *ref)
	}
	return simSample{
		cfg:        cfg,
		run:        run,
		simNs:      float64(sp.dur()),
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		coreNs:     coreNs,
		tracedNs:   tracedNs,
		mdpCalls:   float64(tp.calls),
		mdpNs:      tp.busyNs(clock),
	}, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// addRun sums the counters of r into sum.
func addRun(sum, r *stats.Run) {
	sum.Cycles += r.Cycles
	sum.Committed += r.Committed
	sum.Loads += r.Loads
	sum.Stores += r.Stores
	sum.MemOrderViolations += r.MemOrderViolations
	sum.FalseDependencies += r.FalseDependencies
	sum.Branches += r.Branches
	sum.BranchMispredicts += r.BranchMispredicts
	sum.PredictorReads += r.PredictorReads
	sum.PredictorWrites += r.PredictorWrites
	sum.L1DHits += r.L1DHits
	sum.L1DMisses += r.L1DMisses
	sum.L2Hits += r.L2Hits
	sum.L2Misses += r.L2Misses
	sum.L3Hits += r.L3Hits
	sum.L3Misses += r.L3Misses
	sum.SquashedUops += r.SquashedUops
	sum.ROBOccupancySum += r.ROBOccupancySum
	sum.IssuedUops += r.IssuedUops
}

// coreRun runs cfg on the pooled core of its machine and options, timing
// Core.Run alone. With timed set the predictor is wrapped in a
// timedPredictor and the run records pipeline.Run and an aggregated mdp
// span; otherwise it is the same call on the same core, undecorated. It
// returns the row, the decorator (nil when not timed) and the Core.Run host
// time in nanoseconds.
func coreRun(b *bench, cfg sim.Config, timed bool) (*stats.Run, *timedPredictor, float64, error) {
	machine, opt, err := coreOptions(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	pred, err := sim.NewPredictor(cfg.Predictor)
	if err != nil {
		return nil, nil, 0, err
	}
	var tp *timedPredictor
	if timed {
		tp = &timedPredictor{Predictor: pred}
		pred = tp
	}
	tr, err := sim.TraceFor(cfg.App, cfg.Instructions, cfg.Seed)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := cores.get(b, machine, opt, pred)
	if err != nil {
		return nil, nil, 0, err
	}
	start := nanotime()
	run, err := c.Run(tr)
	ns := float64(nanotime() - start)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core run %s/%s: %w", cfg.App, cfg.Predictor, err)
	}
	if timed {
		id, _ := b.tr.begin()
		b.tr.end(id, start, "pipeline.Run", 0, cfg.App+"/"+cfg.Predictor, 0, 0)
		mdpID, _ := b.tr.begin()
		b.tr.end(mdpID, start, "mdp", id, cfg.App+"/"+cfg.Predictor, tp.calls, int64(tp.busyNs(0)))
	}
	run.Predictor = cfg.Predictor
	return run, tp, ns, nil
}

// corePool keeps one core per machine and branch predictor for traced
// runs, reset between runs as sim's own pool does, so a traced Core.Run is
// timed on a core whose memory has been touched before, like a pooled
// sim.Run.
type corePool map[string]*pipeline.Core

var cores = corePool{}

func (p corePool) get(b *bench, machine config.Machine, opt pipeline.Options, pred mdp.Predictor) (*pipeline.Core, error) {
	key := machine.Name + "/" + opt.BranchPredictor
	var err error
	if c, ok := p[key]; ok {
		b.tr.record("pipeline.Reset", 0, func(int64) { err = c.Reset(pred) })
		return c, err
	}
	var c *pipeline.Core
	b.tr.record("pipeline.New", 0, func(int64) {
		// Built around a throwaway predictor and reset onto pred: the reset
		// touches the cache arrays, as a pooled core's would be.
		if c, err = pipeline.New(machine, mdp.NewNone(), opt); err == nil {
			err = c.Reset(pred)
		}
	})
	if err != nil {
		return nil, err
	}
	p[key] = c
	return c, nil
}

// rowsDigest fingerprints simulated rows (48 bits, exact as a JSON number),
// so a speed-only change can show its simulated output is unchanged.
func rowsDigest(runs []*stats.Run) float64 {
	h := fnv.New64a()
	for _, r := range runs {
		data, _ := json.Marshal(r) // a struct of scalars: cannot fail
		h.Write(data)
	}
	return float64(h.Sum64() >> 16)
}
