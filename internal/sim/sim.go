// Package sim is the one-call facade tying workloads, machine
// configurations, predictors and the pipeline together. Experiment drivers
// (cmd/, examples/) go through this package.
package sim

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mdp"
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

// Normalized returns cfg with every defaultable field filled in with the
// value Run would use, so that two Configs describing the same simulation
// compare (and hash) equal. SVWFilter overriding FwdFilterOff is also
// folded in.
func (cfg Config) Normalized() Config {
	if cfg.Machine == "" {
		cfg.Machine = "alderlake"
	}
	if cfg.Predictor == "" {
		cfg.Predictor = "phast"
	}
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

// NewPredictor builds a predictor from its spec string. Specs:
//
//	phast                 paper configuration (14.5KB)
//	phast:<sets>          budget sweep (sets per table: 32..512)
//	storesets             Table II Store Sets (18.5KB)
//	storesets:<ssit>      budget sweep (SSIT entries; LFST = SSIT/2)
//	nosq                  Table II NoSQ predictor (19KB)
//	nosq:<entries>        budget sweep (entries per table)
//	mdptage               Table II standalone MDP-TAGE (38.6KB)
//	mdptage-s             MDP-TAGE with PHAST's tables/histories (13KB)
//	storevector | cht     early predictors (Fig. 1/Fig. 2 context)
//	ideal | none | alwayswait
//	unlimited-phast[:<maxhist>]
//	unlimited-nosq:<histlen>
//	unlimited-mdptage
func NewPredictor(spec string) (mdp.Predictor, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	argInt := func(def int) (int, error) {
		if arg == "" {
			return def, nil
		}
		v, err := strconv.Atoi(arg)
		if err != nil {
			return 0, fmt.Errorf("sim: bad argument in predictor spec %q: %v", spec, err)
		}
		return v, nil
	}
	switch name {
	case "phast":
		sets, err := argInt(core.DefaultConfig().Sets)
		if err != nil {
			return nil, err
		}
		return core.New(core.BudgetConfig(sets)), nil
	case "storesets":
		ssit, err := argInt(8192)
		if err != nil {
			return nil, err
		}
		cfg := mdp.DefaultStoreSetsConfig()
		cfg.SSITEntries, cfg.LFSTEntries = ssit, ssit/2
		return mdp.NewStoreSets(cfg), nil
	case "nosq":
		entries, err := argInt(2048)
		if err != nil {
			return nil, err
		}
		cfg := mdp.DefaultNoSQConfig()
		cfg.EntriesPerTable = entries
		return mdp.NewNoSQ(cfg), nil
	case "mdptage":
		return mdp.NewMDPTAGE(mdp.DefaultMDPTAGEConfig()), nil
	case "mdptage-s":
		return mdp.NewMDPTAGE(mdp.ShortMDPTAGEConfig()), nil
	case "storevector":
		return mdp.DefaultStoreVector(), nil
	case "cht":
		return mdp.DefaultCHT(), nil
	case "perceptron-mdp":
		return mdp.DefaultPerceptronMDP(), nil
	case "phast-conf":
		conf, err := argInt(15)
		if err != nil {
			return nil, err
		}
		if conf < 1 || conf > 255 {
			return nil, fmt.Errorf("sim: phast-conf out of range: %d", conf)
		}
		cfg := core.DefaultConfig()
		cfg.ConfMax = uint8(conf)
		return core.New(cfg), nil
	case "phast-tables":
		n, err := argInt(8)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		if n < 1 || n > len(cfg.Histories) {
			return nil, fmt.Errorf("sim: phast-tables out of range: %d", n)
		}
		cfg.Histories = cfg.Histories[:n]
		return core.New(cfg), nil
	case "ideal":
		return mdp.NewIdeal(), nil
	case "none":
		return mdp.NewNone(), nil
	case "alwayswait":
		return mdp.NewAlwaysWait(), nil
	case "unlimited-phast":
		maxHist, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return core.NewUnlimitedPHAST(maxHist), nil
	case "unlimited-nosq":
		h, err := argInt(8)
		if err != nil {
			return nil, err
		}
		return mdp.NewUnlimitedNoSQ(h), nil
	case "unlimited-mdptage":
		return mdp.NewUnlimitedMDPTAGE(), nil
	default:
		return nil, fmt.Errorf("sim: unknown predictor spec %q", spec)
	}
}

// PredictorNames lists the finite predictors of the paper's headline
// comparison (Fig. 13–16 order).
func PredictorNames() []string {
	return []string{"storesets", "nosq", "mdptage", "mdptage-s", "phast"}
}

// traceCache is the trace intern pool: workload generation is deterministic,
// so (app, n, seed) fully determines a stream's content and every run of the
// same workload can share one immutable *Trace — along with its lazily built
// prefix structures (trace.Prefixes), which the timing model would otherwise
// recompute per run. Capacity covers a full-suite sweep at one instruction
// count with headroom for mixed lengths.
var traceCache = struct {
	sync.Mutex
	entries map[string]*traceEntry
	order   []string
}{entries: map[string]*traceEntry{}}

// traceEntry single-flights one stream's generation: the cache lock only
// covers the map, and the first caller of a key generates outside it while
// concurrent callers of the same key block on the Once (not on each other's
// unrelated generations — a parallel sweep's first wave used to serialise
// every distinct workload behind one mutex hold).
type traceEntry struct {
	once sync.Once
	t    *trace.Trace
}

const traceCacheCap = 32

// Intern-pool counters, readable via Counters / PublishMetrics.
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
	key := fmt.Sprintf("%s/%d/%d", app, n, seed)
	traceCache.Lock()
	e, ok := traceCache.entries[key]
	if ok {
		traceInternHits.Add(1)
	} else {
		traceInternMisses.Add(1)
		e = &traceEntry{}
		if len(traceCache.order) >= traceCacheCap {
			delete(traceCache.entries, traceCache.order[0])
			traceCache.order = traceCache.order[1:]
		}
		traceCache.entries[key] = e
		traceCache.order = append(traceCache.order, key)
	}
	traceCache.Unlock()
	e.once.Do(func() { e.t = trace.Generate(prog, n, seed) })
	return e.t, nil
}

// PrewarmTrace interns the (app, n, seed) stream and precomputes its prefix
// structures (trace.Prefixes), so a following batch of runs over the same
// workload starts from a fully warm shared trace instead of racing to build
// it on the first run's critical path.
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
// process.
func RunContext(ctx context.Context, cfg Config) (run *stats.Run, err error) {
	cfg = cfg.Normalized()
	defer func() {
		if v := recover(); v != nil {
			run, err = nil, newPanicError(cfg, v, debug.Stack())
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return nil, wrapError(cfg, cerr)
	}
	machine, pred, tr, err := runSetup(cfg)
	if err != nil {
		return nil, &SimError{Kind: ErrConfig, Config: cfg, Err: err}
	}
	opt := pipelineOptions(cfg)
	if cfg.Intervals > 1 {
		run, rerr := runIntervals(ctx, cfg, machine, opt, tr)
		if rerr != nil {
			return nil, wrapError(cfg, rerr)
		}
		run.Predictor = cfg.Predictor
		return run, nil
	}
	if cfg.Verify {
		run, rerr := runVerified(ctx, machine, pred, opt, tr)
		if rerr != nil {
			return nil, wrapError(cfg, rerr)
		}
		run.Predictor = cfg.Predictor
		return run, nil
	}
	key := coreKey{machine: machine, opt: opt.Key()}
	c, err := getCore(key, opt, pred)
	if err != nil {
		return nil, &SimError{Kind: ErrConfig, Config: cfg, Err: err}
	}
	run, rerr := c.RunContext(ctx, tr)
	if rerr != nil {
		// The core is mid-run; drop it rather than pooling dirty state.
		return nil, wrapError(cfg, rerr)
	}
	putCore(key, c)
	run.Predictor = cfg.Predictor
	return run, nil
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
	run := res.Run
	return &run, nil
}

// runVerified executes one simulation with the architectural oracle checking
// the retirement stream. The core is always fresh and never pooled: its
// Verify callback closes over run-local checker state.
func runVerified(ctx context.Context, machine config.Machine, pred mdp.Predictor, opt pipeline.Options, tr *trace.Trace) (*stats.Run, error) {
	ck := oracle.NewChecker(tr)
	opt.Verify = ck.Check
	c, err := pipeline.New(machine, pred, opt)
	if err != nil {
		return nil, err
	}
	run, err := c.RunContext(ctx, tr)
	if err != nil {
		return nil, err
	}
	if got, want := ck.Committed(), tr.Len(); got != want {
		return nil, &oracle.DivergenceError{Cycle: run.Cycles, TraceIdx: got,
			Reason: fmt.Sprintf("run finished but only %d of %d micro-ops were verified", got, want)}
	}
	return run, nil
}

// RunCore is like Run but also returns the core, so callers can inspect
// predictor internals (conflict-length histograms, path counts). The core is
// always freshly built — ownership passes to the caller, never to the pool.
// Failures return as typed *SimErrors, like RunContext.
func RunCore(cfg Config) (run *stats.Run, core *pipeline.Core, err error) {
	cfg = cfg.Normalized()
	defer func() {
		if v := recover(); v != nil {
			run, core, err = nil, nil, newPanicError(cfg, v, debug.Stack())
		}
	}()
	machine, pred, tr, err := runSetup(cfg)
	if err != nil {
		return nil, nil, &SimError{Kind: ErrConfig, Config: cfg, Err: err}
	}
	opt := pipelineOptions(cfg)
	var ck *oracle.Checker
	if cfg.Verify {
		ck = oracle.NewChecker(tr)
		opt.Verify = ck.Check
	}
	c, err := pipeline.New(machine, pred, opt)
	if err != nil {
		return nil, nil, &SimError{Kind: ErrConfig, Config: cfg, Err: err}
	}
	run, rerr := c.Run(tr)
	if rerr != nil {
		return nil, nil, wrapError(cfg, rerr)
	}
	run.Predictor = cfg.Predictor
	return run, c, nil
}

// GeoIPCOverIdeal runs a predictor and the ideal oracle across apps and
// returns the geometric-mean IPC ratio (the paper's headline normalisation).
func GeoIPCOverIdeal(apps []string, predictor string, instructions int) (float64, error) {
	ratios := make([]float64, 0, len(apps))
	for _, app := range apps {
		base := Config{App: app, Predictor: "ideal", Instructions: instructions}
		idealRun, err := Run(base)
		if err != nil {
			return 0, err
		}
		base.Predictor = predictor
		predRun, err := Run(base)
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, predRun.Speedup(idealRun))
	}
	return stats.GeoMean(ratios), nil
}
