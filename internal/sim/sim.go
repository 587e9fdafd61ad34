// Package sim is the one-call facade tying workloads, machine
// configurations, predictors and the pipeline together. Experiment drivers
// (cmd/, examples/) go through this package.
package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/mdp"
	"repro/internal/memo"
	"repro/internal/oracle"
	"repro/internal/parsim"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// App is a workload name from the suite (see workload.Names).
	App string
	// Machine is a configuration name (see config.Names); default alderlake.
	Machine string
	// Predictor is an MDP spec (see NewPredictor); default phast.
	Predictor string
	// Instructions is the stream length (default 300000).
	Instructions int
	// Seed overrides the app's default stream seed (0 = default).
	Seed int64
	// FwdFilterOff disables the §IV-A1 forwarding filter (Fig. 12).
	FwdFilterOff bool
	// SVWFilter replaces the forwarding filter with NoSQ's SVW/SSBF
	// commit-time verification (§VII); it overrides FwdFilterOff.
	SVWFilter bool
	// TrainAtDetect trains predictors at mispeculation detection instead of
	// commit (the §IV-A1 update-point ablation).
	TrainAtDetect bool
	// BranchPredictor overrides the direction predictor (default tagescl).
	BranchPredictor string
	// Verify runs the in-order architectural oracle (internal/oracle) in
	// lockstep with retirement and fails the run on the first divergence.
	// Verified runs bypass the core pool. The json tag omits the field when
	// false so existing persistent run-cache keys stay valid.
	Verify bool `json:"Verify,omitempty"`
	// Intervals splits the run into this many concurrently-simulated
	// intervals, warmed from architectural oracle checkpoints and stitched
	// under the oracle digest gate (see internal/parsim for the exact
	// semantics — counters are the sum of independently-started interval
	// runs, not a replay of the sequential timing). Values <= 1 mean an
	// ordinary sequential run; the json tags omit both fields then, so
	// persistent run-cache keys of sequential runs are untouched.
	Intervals int `json:"Intervals,omitempty"`
	// IntervalWarmup is the functional warm-up window: how many micro-ops
	// before each interval boundary are simulated (unmeasured) to heat
	// predictors and caches. 0 means DefaultIntervalWarmup, negative means
	// no warm-up. Meaningful only when Intervals > 1.
	IntervalWarmup int `json:"IntervalWarmup,omitempty"`
}

// DefaultInstructions is the per-run stream length used when Config leaves
// it zero. The paper simulates 100M-instruction SimPoints; synthetic streams
// reach steady state much sooner, and every experiment scales with a flag.
const DefaultInstructions = 300_000

// DefaultIntervalWarmup is the per-interval functional warm-up window used
// when Config.Intervals > 1 and IntervalWarmup is zero. 10k µops covers the
// training horizon of every finite predictor in the suite at a few percent
// of the default interval length.
const DefaultIntervalWarmup = 10_000

// BehaviorVersion stamps persisted simulation results (internal/runcache).
// Bump it whenever a change alters the output of a simulation for an
// unchanged Config — timing-model changes, predictor behaviour, workload
// generation, counter semantics. Stale run-cache entries carrying an old
// stamp then read as misses instead of resurfacing outdated numbers.
//
// Version 2: the cache hierarchy's in-flight fill tracking and the stride
// prefetcher moved from maps to fixed direct-mapped tables, which can evict
// on index collisions where the maps did not (and removes the prefetcher's
// map-iteration eviction nondeterminism).
const BehaviorVersion = 2

// IntervalVersion stamps persisted results of interval runs (Intervals > 1)
// on top of BehaviorVersion; the run cache salts only their keys with it, so
// a change confined to interval runs leaves every sequential key untouched.
//
// Version 1: a warmed interval's history registers kept the predictor's
// registered folds across the warm-up boundary; before, the boundary reset
// dropped them, which froze PHAST's, MDP-TAGE's and NoSQ's history.
const IntervalVersion = 1

// TraceVersion salts the run-cache keys of uploaded-trace apps alone, for a
// change that moves only shapes generated workloads never have.
//
// Version 1: a store's register result wakes its consumers at the store's
// completion, like every other producer's; before, a consumer's issue cycle
// could depend on which cycles the scheduler re-evaluated it.
const TraceVersion = 1

// Normalized returns cfg with every defaultable field filled in with the
// value Run would use, so that two Configs describing the same simulation
// compare (and hash) equal. SVWFilter overriding FwdFilterOff is also
// folded in, and a valid predictor spec takes its canonical spelling (see
// canonicalSpec).
func (cfg Config) Normalized() Config {
	if cfg.Machine == "" {
		cfg.Machine = "alderlake"
	}
	if cfg.Predictor == "" {
		cfg.Predictor = "phast"
	}
	cfg.Predictor = canonicalSpec(cfg.Predictor)
	if cfg.Instructions == 0 {
		cfg.Instructions = DefaultInstructions
	}
	if cfg.BranchPredictor == "" {
		cfg.BranchPredictor = "tagescl"
	}
	if cfg.SVWFilter {
		cfg.FwdFilterOff = false
	}
	if cfg.Intervals <= 1 {
		// A 1-interval "parallel" run is exactly a sequential run: fold it
		// onto the sequential cache key.
		cfg.Intervals = 0
		cfg.IntervalWarmup = 0
	} else {
		switch {
		case cfg.IntervalWarmup == 0:
			cfg.IntervalWarmup = DefaultIntervalWarmup
		case cfg.IntervalWarmup < 0:
			cfg.IntervalWarmup = 0
		}
	}
	return cfg
}

// streamKey names one interned stream. Workload generation is
// deterministic, so (app, n, seed) fully determines a generated stream; a
// truncated view of an uploaded stream is keyed by its trace app and length,
// with seed 0.
type streamKey struct {
	app  string
	n    int
	seed int64
}

// streams is the trace intern pool: every run of one workload shares one
// immutable *Trace, along with its lazily built structures (Trace.Pre,
// Trace.BranchOutcomes), which the timing model would otherwise recompute per
// run. Its capacity covers a full-suite sweep at one instruction count with
// headroom for mixed lengths.
var streams = memo.New[streamKey, *trace.Trace](32)

// Intern-pool counters, published by PublishMetrics.
var (
	traceInternHits   atomic.Uint64
	traceInternMisses atomic.Uint64
)

// TraceFor generates (or returns the interned) stream for an app. Apps
// named "trace:<digest>" resolve to an uploaded stream previously
// registered with ProvideTrace (see traceapp.go) instead of a synthetic
// workload.
func TraceFor(app string, n int, seed int64) (*trace.Trace, error) {
	if digest, ok, err := TraceDigest(app); ok {
		if err != nil {
			return nil, err
		}
		return traceForDigest(app, digest, n)
	}
	prog, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	return intern(streamKey{app: app, n: n, seed: seed}, func() (*trace.Trace, error) {
		return trace.Generate(prog, n, seed), nil
	})
}

// intern returns k's stream from the pool, building it on a miss, and
// counts the hit or miss.
func intern(k streamKey, build func() (*trace.Trace, error)) (*trace.Trace, error) {
	tr, hit, err := streams.Get(k, build)
	if hit {
		traceInternHits.Add(1)
	} else {
		traceInternMisses.Add(1)
	}
	return tr, err
}

// PrewarmTrace interns the (app, n, seed) stream and builds its prefixes
// (trace.Prefixes), so a following batch of runs over the same workload
// does not race to build them on the first run's critical path. It does not
// build the branch outcomes (Trace.BranchOutcomes): the first run builds
// those for its own direction predictor.
func PrewarmTrace(app string, n int, seed int64) error {
	tr, err := TraceFor(app, n, seed)
	if err != nil {
		return err
	}
	tr.Pre()
	return nil
}

// Counter names published by PublishMetrics.
const (
	CounterTraceInternHits   = "trace.intern.hits"
	CounterTraceInternMisses = "trace.intern.misses"
	CounterCoreReuses        = "core.pool.reuses"
)

// PublishMetrics copies the package's counters (trace intern pool hits and
// misses, core pool reuses) into a metrics registry. Call it after a batch
// of runs; values are cumulative over the process.
func PublishMetrics(m *stats.Metrics) {
	m.Set(CounterTraceInternHits, traceInternHits.Load())
	m.Set(CounterTraceInternMisses, traceInternMisses.Load())
	m.Set(CounterCoreReuses, coreReuses.Load())
}

// corePool recycles pipeline cores between Run calls. A core's allocation
// footprint (ROB, queues, cache arrays, history registers — several MB) is a
// function of only the machine configuration and the pipeline options, so a
// finished core can be Reset and reused by any later run with the same key
// instead of being rebuilt. Reset cores behave bit-identically to fresh ones
// (pipeline.TestResetCoreMatchesFresh and the runcache determinism tests
// hold this invariant). Only Run pools cores; RunCore hands the core to the
// caller and must leave ownership there.
var corePool = struct {
	sync.Mutex
	m map[coreKey][]*pipeline.Core
}{m: map[coreKey][]*pipeline.Core{}}

type coreKey struct {
	machine config.Machine
	opt     pipeline.OptionsKey // Options carries a func field; pool by its comparable key
}

// corePoolCap bounds idle cores kept per key: enough for every worker of a
// saturated parallel sweep on a large host, while a pathological key mix
// stays bounded at a few dozen MB.
const corePoolCap = 32

var coreReuses atomic.Uint64

func getCore(key coreKey, opt pipeline.Options, pred mdp.Predictor) (*pipeline.Core, error) {
	corePool.Lock()
	stack := corePool.m[key]
	var c *pipeline.Core
	if n := len(stack); n > 0 {
		c = stack[n-1]
		corePool.m[key] = stack[:n-1]
	}
	corePool.Unlock()
	if c == nil {
		return pipeline.New(key.machine, pred, opt)
	}
	if err := c.Reset(pred); err != nil {
		return nil, err
	}
	coreReuses.Add(1)
	return c, nil
}

func putCore(key coreKey, c *pipeline.Core) {
	corePool.Lock()
	if len(corePool.m[key]) < corePoolCap {
		corePool.m[key] = append(corePool.m[key], c)
	}
	corePool.Unlock()
}

// pipelineOptions maps a Config onto core options.
func pipelineOptions(cfg Config) pipeline.Options {
	opt := pipeline.DefaultOptions()
	switch {
	case cfg.SVWFilter:
		opt.Filter = pipeline.FilterSVW
	case cfg.FwdFilterOff:
		opt.Filter = pipeline.FilterNone
	}
	opt.TrainAtDetect = cfg.TrainAtDetect
	if cfg.BranchPredictor != "" {
		opt.BranchPredictor = cfg.BranchPredictor
	}
	return opt
}

// runSetup resolves the normalized Config into its machine, predictor and
// interned trace.
func runSetup(cfg Config) (config.Machine, mdp.Predictor, *trace.Trace, error) {
	machine, err := config.ByName(cfg.Machine)
	if err != nil {
		return config.Machine{}, nil, nil, err
	}
	pred, err := NewPredictor(cfg.Predictor)
	if err != nil {
		return config.Machine{}, nil, nil, err
	}
	tr, err := TraceFor(cfg.App, cfg.Instructions, cfg.Seed)
	if err != nil {
		return config.Machine{}, nil, nil, err
	}
	return machine, pred, tr, nil
}

// Run executes one simulation on a pooled core (see corePool).
func Run(cfg Config) (*stats.Run, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes one simulation on a pooled core (see corePool),
// honouring ctx: cancellation or deadline expiry aborts the run within a
// few thousand simulated cycles. Every failure — setup error, pipeline
// deadlock, context abort, and any panic escaping the simulator — returns
// as a typed *SimError, so one broken run poisons one result, never the
// process. The row names the predictor as cfg spells it, not in the
// canonical spelling Normalized keys the run under.
func RunContext(ctx context.Context, cfg Config) (*stats.Run, error) {
	r, _, err := run(ctx, cfg, false)
	return r, err
}

// RunCore is like Run but also returns the core, so callers can inspect
// predictor internals (conflict-length histograms, path counts). The core is
// always freshly built — ownership passes to the caller, never to the pool.
// A run split into intervals has no one core to return, so Intervals > 1
// fails as ErrConfig. Failures return as typed *SimErrors, like RunContext.
func RunCore(cfg Config) (*stats.Run, *pipeline.Core, error) {
	return run(context.Background(), cfg, true)
}

// verifier is the architectural oracle a verified run binds to its core
// (oracle.Checker). newChecker builds it; a test substitutes a checker that
// misses retirements to reach the completeness check below.
type verifier interface {
	Check(ev *pipeline.CommitEvent) error
	Committed() int
}

var newChecker = func(tr *trace.Trace) verifier { return oracle.NewChecker(tr) }

// run is the one run path behind RunContext and RunCore. own asks for a
// fresh core that passes to the caller; otherwise a sequential run borrows a
// pooled core (see corePool) unless the oracle checks it: a verified core's
// callback closes over run-local checker state, so it is always fresh and
// never pooled. The core is returned only when own.
func run(ctx context.Context, cfg Config, own bool) (r *stats.Run, c *pipeline.Core, err error) {
	spelled := cfg.Predictor
	cfg = cfg.Normalized()
	defer func() {
		if v := recover(); v != nil {
			r, c, err = nil, nil, newPanicError(cfg, v, debug.Stack())
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, wrapError(cfg, cerr)
	}
	if own && cfg.Intervals > 1 {
		return nil, nil, &SimError{Kind: ErrConfig, Config: cfg, Err: errors.New("sim: RunCore simulates one core; Intervals > 1 is not supported")}
	}
	machine, pred, tr, err := runSetup(cfg)
	if err != nil {
		return nil, nil, &SimError{Kind: ErrConfig, Config: cfg, Err: err}
	}
	opt := pipelineOptions(cfg)
	if cfg.Intervals > 1 {
		if r, err = runIntervals(ctx, cfg, machine, opt, tr); err != nil {
			return nil, nil, wrapError(cfg, err)
		}
		r.Predictor = cmp.Or(spelled, cfg.Predictor)
		return r, nil, nil
	}
	var ck verifier
	if cfg.Verify {
		ck = newChecker(tr)
		opt.Verify = ck.Check
	}
	pooled := !own && ck == nil
	key := coreKey{machine: machine, opt: opt.Key()}
	if pooled {
		c, err = getCore(key, opt, pred)
	} else {
		c, err = pipeline.New(machine, pred, opt)
	}
	if err != nil {
		return nil, nil, &SimError{Kind: ErrConfig, Config: cfg, Err: err}
	}
	r, err = c.RunContext(ctx, tr)
	if err == nil && ck != nil && ck.Committed() != tr.Len() {
		err = &oracle.DivergenceError{Cycle: r.Cycles, TraceIdx: ck.Committed(),
			Reason: fmt.Sprintf("run finished but only %d of %d micro-ops were verified", ck.Committed(), tr.Len())}
	}
	if err != nil {
		// The core is mid-run; drop it rather than pooling dirty state.
		return nil, nil, wrapError(cfg, err)
	}
	if pooled {
		putCore(key, c)
		c = nil
	}
	r.Predictor = cmp.Or(spelled, cfg.Predictor)
	return r, c, nil
}

// runIntervals executes one simulation as Config.Intervals concurrent
// intervals (see internal/parsim). Unverified interval runs draw their
// cores from the shared pool; verified ones build fresh cores (their Verify
// callbacks close over per-interval checker state). The stitched result
// carries the run's oracle digest — parsim only returns when it equals the
// sequential in-order digest.
func runIntervals(ctx context.Context, cfg Config, machine config.Machine, opt pipeline.Options, tr *trace.Trace) (*stats.Run, error) {
	job := parsim.Job{
		Machine: machine,
		Options: opt,
		NewPredictor: func() (mdp.Predictor, error) {
			return NewPredictor(cfg.Predictor)
		},
	}
	if !cfg.Verify {
		key := coreKey{machine: machine, opt: opt.Key()}
		job.GetCore = func(pred mdp.Predictor) (*pipeline.Core, error) {
			return getCore(key, opt, pred)
		}
		job.PutCore = func(c *pipeline.Core) { putCore(key, c) }
	}
	res, err := parsim.Run(ctx, tr, job, parsim.Plan{
		Intervals: cfg.Intervals,
		Warmup:    cfg.IntervalWarmup,
		Verify:    cfg.Verify,
	})
	if err != nil {
		return nil, err
	}
	r := res.Run
	return &r, nil
}
