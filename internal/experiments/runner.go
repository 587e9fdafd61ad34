// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §6 for the experiment index). cmd/paperfigs and
// the repository benchmarks are thin wrappers over this package.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options scope an experiment run.
type Options struct {
	// Apps is the workload list (default: the whole suite).
	Apps []string
	// Instructions per run (default sim.DefaultInstructions).
	Instructions int
	// Out receives the rendered tables (default discards; cmd sets stdout).
	Out io.Writer
	// Workers bounds app-level parallelism (default min(8, NumCPU)).
	Workers int
	// CacheDir roots the persistent run cache; empty keeps memoisation
	// in-process only (every prior release's behaviour).
	CacheDir string
	// CacheMaxBytes caps the persistent cache's on-disk size; past it the
	// oldest entries are garbage-collected (runcache.Store.SetMaxBytes).
	// Zero keeps the cache unbounded.
	CacheMaxBytes int64
	// Metrics receives the runner's counters (cache hits/misses, runs
	// simulated, simulator wall-time). Default: a private registry,
	// readable via Runner.Metrics.
	Metrics *stats.Metrics
	// Context is the base context of every simulation the runner starts;
	// cancelling it (SIGINT in the cmds) aborts queued and in-flight runs.
	// Default context.Background().
	Context context.Context
	// RunTimeout bounds each simulation's wall-clock time; a run past the
	// deadline fails with sim.ErrTimeout. Zero means no deadline.
	RunTimeout time.Duration
	// KeepGoing disables fail-fast batching: every config in a batch runs
	// to completion and failures are reported per config instead of the
	// first error cancelling its still-queued siblings.
	KeepGoing bool
	// Intervals applies sim.Config.Intervals to every run whose config
	// leaves it zero: each simulation is split into this many concurrently-
	// simulated, oracle-gated intervals (see internal/parsim). Note the
	// semantic change interval counters carry; results cache under distinct
	// keys from sequential runs.
	Intervals int
	// TenantWeights maps tenant identities to scheduling weights for the
	// shared worker pool's weighted-fair policy (absent tenants weigh 1).
	// Tenancy rides each request's context (WithTenant); the zero map keeps
	// every tenant at equal share.
	TenantWeights map[string]int
	// TraceResolver fetches the decoded stream of an uploaded trace by
	// content digest — typically the local trace store plus, in a fleet,
	// its peer tier. It is consulted only on a full cache miss for a
	// "trace:<digest>" config whose stream is not yet provided to the
	// process: cached results never require the trace bytes. Nil means
	// trace-app runs succeed only for streams already provided
	// (sim.ProvideTrace).
	TraceResolver TraceResolver
}

// TraceResolver fetches an uploaded trace's decoded stream by its content
// digest. Implementations must return the decode of the canonical bytes
// hashing to digest; errors surface as typed config errors on the runs
// that needed the trace.
type TraceResolver func(ctx context.Context, digest string) (*trace.Trace, error)

func (o Options) norm() Options {
	if len(o.Apps) == 0 {
		o.Apps = workload.Names()
	}
	if o.Instructions == 0 {
		o.Instructions = sim.DefaultInstructions
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.Metrics == nil {
		o.Metrics = stats.NewMetrics()
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// Result pairs one Config of a batch with its outcome: exactly one of Run
// and Err is set.
type Result struct {
	Config sim.Config
	Run    *stats.Run
	Err    error
}

// Runner executes simulations behind a layered cache (in-process map →
// persistent store → simulate, see internal/runcache) so figures sharing
// runs (every figure needs the ideal baseline) pay for them once — and,
// with a cache directory, pay for them once across process invocations.
// All fan-out goes through one shared worker pool.
//
// Failure containment: a failed run surfaces as a typed error (sim.SimError
// — recovered panic, watchdog deadlock, timeout, cancellation) that poisons
// its own result, bumps a "sim.errors.<kind>" counter and lands in the
// failure log (WriteFailures), never as a crashed process.
type Runner struct {
	opt   Options
	cache *runcache.Cache
	sched *scheduler

	mu       sync.Mutex
	failures []Result // failed runs, in completion order
}

// NewRunner builds a runner for the given options.
func NewRunner(opt Options) *Runner {
	opt = opt.norm()
	var disk *runcache.Store
	if opt.CacheDir != "" {
		disk = runcache.NewStore(opt.CacheDir)
	}
	cache := runcache.New(disk, opt.Metrics)
	if disk != nil && opt.CacheMaxBytes > 0 {
		// After New so the startup sweep's evictions land in the registry.
		disk.SetMaxBytes(opt.CacheMaxBytes)
	}
	sched := newScheduler(opt.Workers)
	sched.weights = opt.TenantWeights
	sched.metrics = opt.Metrics
	return &Runner{
		opt:   opt,
		cache: cache,
		sched: sched,
	}
}

// Opt returns the normalised options.
func (r *Runner) Opt() Options { return r.opt }

// Metrics returns the runner's counter registry.
func (r *Runner) Metrics() *stats.Metrics { return r.opt.Metrics }

// SetPeerFetch installs f as the run cache's peer tier (memory → disk →
// peer → simulate; see runcache.Cache.SetPeerFetch). The serving layer
// wires this to the fleet's peer cache-fetch client so a local miss asks
// the ring's other owners before paying for a simulation.
func (r *Runner) SetPeerFetch(f runcache.PeerFetchFunc) { r.cache.SetPeerFetch(f) }

// SetTraceResolver installs f as the uploaded-trace resolver (see
// Options.TraceResolver). Like SetPeerFetch it exists to break the
// construction cycle with the serving layer — the server needs the runner as
// its backend, and the runner needs the server's fleet-aware trace fetch —
// and must be called before the runner starts serving work.
func (r *Runner) SetTraceResolver(f TraceResolver) { r.opt.TraceResolver = f }

// CachedRun reports the locally cached result under key (memory, then
// disk) without ever simulating — the lookup behind the fleet's
// GET /v1/peer/cache/{key} endpoint.
func (r *Runner) CachedRun(key string) (*stats.Run, bool) { return r.cache.Cached(key) }

// Close stops the worker pool. It is safe to call more than once; batch
// APIs called after Close fail with a per-config error.
func (r *Runner) Close() { r.sched.close() }

// recordFailure turns one failed run into its observable forms: the
// per-kind error counter and a row in the failure log.
func (r *Runner) recordFailure(cfg sim.Config, err error) {
	r.opt.Metrics.Add(sim.CounterErrorPrefix+string(sim.KindOf(err)), 1)
	r.mu.Lock()
	r.failures = append(r.failures, Result{Config: cfg, Err: err})
	r.mu.Unlock()
}

// Failures returns a snapshot of every failed run so far.
func (r *Runner) Failures() []Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Result(nil), r.failures...)
}

// RunConfigContext executes (or recalls) the simulation described by cfg,
// bounded by ctx (which must descend from the runner's base context for
// SIGINT to reach it; batch APIs pass their per-batch cancel context). The
// runner's instruction count applies when cfg leaves it zero.
// Options.RunTimeout is layered on per call, so the deadline clocks one
// simulation, not the batch. Failures are recorded (counter + failure log)
// before returning.
func (r *Runner) RunConfigContext(ctx context.Context, cfg sim.Config) (run *stats.Run, err error) {
	if cfg.Instructions == 0 {
		cfg.Instructions = r.opt.Instructions
	}
	if cfg.Intervals == 0 {
		cfg.Intervals = r.opt.Intervals
	}
	cfg = cfg.Normalized() // failure rows and cache keys see resolved names
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("experiments: run %s/%s/%s panicked outside the simulator: %v\n%s",
				cfg.App, cfg.Machine, cfg.Predictor, v, debug.Stack())
		}
		if err != nil {
			r.recordFailure(cfg, err)
		}
	}()
	if r.opt.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opt.RunTimeout)
		defer cancel()
	}
	return r.cache.GetOrRun(ctx, cfg, func(ctx context.Context) (*stats.Run, error) {
		// Full cache miss: for an uploaded-trace config, materialise the
		// stream (store, then fleet peers) before simulating. Cached
		// results never pay this — a node can serve a digest it has never
		// held the trace bytes for.
		if err := r.resolveTraceApp(ctx, cfg); err != nil {
			return nil, err
		}
		return sim.RunContext(ctx, cfg)
	})
}

// resolveTraceApp ensures cfg's uploaded trace (if cfg is a trace-app run)
// is provided to the process, consulting Options.TraceResolver. Non-trace
// apps, malformed digests and a nil resolver all fall through to
// sim.RunContext, which reports them typed.
func (r *Runner) resolveTraceApp(ctx context.Context, cfg sim.Config) error {
	digest, ok, err := sim.TraceDigest(cfg.App)
	if !ok || err != nil || r.opt.TraceResolver == nil || sim.TraceProvided(digest) {
		return nil
	}
	tr, rerr := r.opt.TraceResolver(ctx, digest)
	if rerr != nil {
		return &sim.SimError{Kind: sim.ErrConfig, Config: cfg, Err: rerr}
	}
	sim.ProvideTrace(digest, tr)
	return nil
}

// RunConfigScheduledContext executes one simulation through the shared
// weighted-fair worker pool (on ctx's tenant share) instead of inline on
// the calling goroutine — the serving layer's single-run entry point, so
// HTTP traffic competes for workers under the same fairness policy as
// batches. Inline callers (jobs already on the pool) must keep using
// RunConfigContext: a pool job waiting on a sub-job could starve the pool.
func (r *Runner) RunConfigScheduledContext(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	type outcome struct {
		run *stats.Run
		err error
	}
	ch := make(chan outcome, 1)
	err := r.sched.submitCtx(ctx, TenantFrom(ctx), func() {
		run, rerr := r.RunConfigContext(ctx, cfg)
		ch <- outcome{run, rerr}
	})
	if err != nil {
		return nil, err
	}
	out := <-ch
	return out.run, out.err
}

// RunConfigsDetailedContext executes a batch on the shared worker pool,
// bounded by ctx, and reports every config's individual outcome in input
// order, error rows included — the entry point of the serving layer, where
// each HTTP request carries its own deadline that must cover the whole
// batch, and of callers that tabulate partial results. ctx should descend
// from the runner's base context. By default the batch fails fast: the
// first failure cancels still-queued and in-flight siblings. With
// Options.KeepGoing every config runs regardless.
func (r *Runner) RunConfigsDetailedContext(ctx context.Context, cfgs []sim.Config) []Result {
	tenant := TenantFrom(ctx)
	ctx, cancel := r.batchContextFrom(ctx)
	defer cancel()
	waitPrewarm := r.prewarmTraces(ctx, tenant, cfgs)
	defer waitPrewarm()
	results := make([]Result, len(cfgs))
	r.fanOut(ctx, tenant, len(cfgs), func(i int) {
		run, err := r.RunConfigContext(ctx, cfgs[i])
		results[i] = Result{Config: cfgs[i], Run: run, Err: err}
		if err != nil {
			cancel()
		}
	}, func(i int, err error) {
		// A queued sibling withdrawn by fail-fast cancellation gets the
		// same typed, failure-logged outcome it would have had running
		// with a dead context; a closed pool stays a bare typed error.
		if !errors.Is(err, errSchedulerClosed) {
			cfgN := cfgs[i]
			if cfgN.Instructions == 0 {
				cfgN.Instructions = r.opt.Instructions
			}
			cfgN = cfgN.Normalized()
			err = &sim.SimError{Kind: sim.KindOf(err), Config: cfgN, Err: err}
			r.recordFailure(cfgN, err)
		}
		results[i] = Result{Config: cfgs[i], Err: err}
	})()
	return results
}

// fanOut submits job(i) for every i in [0, n) to the shared pool on
// tenant's share, in index order, and returns a func that waits for every
// job the pool took. A job the pool refuses — ctx ended while it queued, or
// the pool is closed — never runs; refused(i, err) gets its error instead.
func (r *Runner) fanOut(ctx context.Context, tenant string, n int, job func(i int), refused func(i int, err error)) (wait func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		err := r.sched.submitCtx(ctx, tenant, func() {
			defer wg.Done()
			job(i)
		})
		if err != nil {
			wg.Done()
			refused(i, err)
		}
	}
	return wg.Wait
}

// rootCause returns whichever of a batch's error so far and a further
// outcome err (nil for a success) names the root cause: the earlier one,
// unless it is a cancellation the failure that started the collapse
// knocked out.
func rootCause(first, err error) error {
	if err != nil && (first == nil || sim.KindOf(first) == sim.ErrCancelled && sim.KindOf(err) != sim.ErrCancelled) {
		return err
	}
	return first
}

// prewarmTraces decodes and interns, in parallel on the worker pool, every
// workload stream that more than one config of the batch will run. A
// multi-config sweep over one workload then drives all its cores from the
// one shared interned trace (with its prefix structures prebuilt) instead
// of the first-scheduled run paying the decode on its critical path while
// its siblings queue behind sim's single-flight. Single-config workloads
// are left to their run — prewarming them would do the same work with an
// extra pool round-trip. Errors are deliberately dropped: the runs
// themselves surface them per config, with proper failure accounting.
//
// It returns once the pool has taken every prewarm job, in the order the
// streams first appear in cfgs, and does not wait for them to finish: the
// batch's runs queue right behind, so the pool never idles at a prewarm
// barrier, and a run that reaches a stream still being built waits for it in
// sim's single-flight. The returned func waits for the prewarm jobs.
func (r *Runner) prewarmTraces(ctx context.Context, tenant string, cfgs []sim.Config) (wait func()) {
	type key struct {
		app  string
		n    int
		seed int64
	}
	keys := make([]key, len(cfgs))
	counts := make(map[key]int, len(cfgs))
	for i, cfg := range cfgs {
		n := cfg.Instructions
		if n == 0 {
			n = r.opt.Instructions
		}
		keys[i] = key{cfg.App, n, cfg.Seed}
		counts[keys[i]]++
	}
	var shared []key
	for _, k := range keys {
		if counts[k] >= 2 {
			shared = append(shared, k)
			counts[k] = 0 // listed
		}
	}
	return r.fanOut(ctx, tenant, len(shared), func(i int) {
		if ctx.Err() == nil {
			_ = sim.PrewarmTrace(shared[i].app, shared[i].n, shared[i].seed)
		}
	}, func(int, error) {})
}

// batchContextFrom derives one batch's context from parent (the runner's
// base, or a server request's context): with fail-fast (the default) the
// returned cancel aborts the batch's siblings; with KeepGoing it is a no-op
// so one failure never touches the others.
func (r *Runner) batchContextFrom(parent context.Context) (context.Context, context.CancelFunc) {
	if r.opt.KeepGoing {
		return parent, func() {}
	}
	return context.WithCancel(parent)
}

// ForEachApp runs fn(i, app) for every app on the shared worker pool and
// returns the root-cause error once all have finished. It is the escape
// hatch for experiments needing more than cached stats.Run counters
// (predictor internals via sim.RunCore); such work bypasses the run cache.
// fn does not take a context, so fail-fast cancellation stops still-queued
// apps from starting but lets in-flight ones finish; a panicking fn poisons
// its own app's error, not the process.
func (r *Runner) ForEachApp(fn func(i int, app string) error) error {
	ctx, cancel := r.batchContextFrom(r.opt.Context)
	defer cancel()
	errs := make([]error, len(r.opt.Apps))
	r.fanOut(ctx, TenantFrom(ctx), len(r.opt.Apps), func(i int) {
		if errs[i] = ctx.Err(); errs[i] != nil {
			return
		}
		errs[i] = protect(func() error { return fn(i, r.opt.Apps[i]) })
		if errs[i] != nil {
			cancel()
		}
	}, func(i int, err error) { errs[i] = err })()
	var batchErr error
	for _, err := range errs {
		batchErr = rootCause(batchErr, err)
	}
	return batchErr
}

// protect runs fn, converting a panic into an error.
func protect(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("experiments: app job panicked: %v\n%s", v, debug.Stack())
		}
	}()
	return fn()
}

// RunGrid runs every variant — a config with its App left blank — over the
// runner's apps as one batch, and returns each variant's runs in app order.
// The batch is variant-major: the pool never drains between variants, and
// the runs that share an app's trace sit len(apps) positions apart. On
// failure it returns the root-cause error (not a secondary cancellation)
// along with the grid of every run that did succeed, a nil marking each
// failed one.
func (r *Runner) RunGrid(variants []sim.Config) ([][]*stats.Run, error) {
	apps := r.opt.Apps
	cfgs := make([]sim.Config, 0, len(variants)*len(apps))
	for _, v := range variants {
		for _, app := range apps {
			v.App = app
			cfgs = append(cfgs, v)
		}
	}
	results := r.RunConfigsDetailedContext(r.opt.Context, cfgs)
	runs := make([]*stats.Run, len(results))
	var err error
	for i, res := range results {
		runs[i] = res.Run
		err = rootCause(err, res.Err)
	}
	grid := make([][]*stats.Run, len(variants))
	for i := range grid {
		grid[i] = runs[i*len(apps) : (i+1)*len(apps)]
	}
	return grid, err
}

// vsIdeal runs the ideal oracle on alderlake and then every variant as one
// RunGrid batch, and returns the ideal runs and each variant's runs.
func (r *Runner) vsIdeal(variants []sim.Config) (ideal []*stats.Run, runs [][]*stats.Run, err error) {
	grid, err := r.RunGrid(append([]sim.Config{{Predictor: "ideal"}}, variants...))
	if err != nil {
		return nil, nil, err
	}
	return grid[0], grid[1:], nil
}

// Space is a sweep over predictor configurations: predictor specs crossed
// with the training point. It is the one description of a sweep: every
// paperfigs grid expands through it, and it is the "space" of an autotuner
// job (internal/jobs).
type Space struct {
	// Predictors are sim predictor specs ("phast", "storesets",
	// "phast:256", "phast-conf:7", ...).
	Predictors []string `json:"predictors,omitempty"`
	// TrainAtDetect crosses every predictor with these training-point
	// values (the §IV-A1 update-point ablation). Empty means {false}.
	TrainAtDetect []bool `json:"train_at_detect,omitempty"`
}

// Variants expands the space into RunGrid variants, App and Machine left
// blank, in canonical order: predictor-major, each predictor crossed with
// the train-point values in listed order. Duplicates keep their first
// position, so a variant's index (a job's candidate index) is stable.
func (sp Space) Variants() []sim.Config {
	tads := sp.TrainAtDetect
	if len(tads) == 0 {
		tads = []bool{false}
	}
	seen := map[sim.Config]bool{}
	out := make([]sim.Config, 0, len(sp.Predictors)*len(tads))
	for _, p := range sp.Predictors {
		for _, tad := range tads {
			v := sim.Config{Predictor: p, TrainAtDetect: tad}
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// onMachine moves every variant to machine and returns them.
func onMachine(machine string, variants []sim.Config) []sim.Config {
	for i := range variants {
		variants[i].Machine = machine
	}
	return variants
}

// GeoIPCvsIdeal returns the geometric-mean IPC of runs normalised to the
// ideal oracle's runs of the same apps.
func GeoIPCvsIdeal(runs, ideal []*stats.Run) float64 {
	ratios := make([]float64, len(runs))
	for i := range runs {
		ratios[i] = runs[i].Speedup(ideal[i])
	}
	return stats.GeoMean(ratios)
}

// MeanMPKI returns the arithmetic-mean violation and false-dependence MPKI
// of runs.
func MeanMPKI(runs []*stats.Run) (fn, fp float64) {
	fns := make([]float64, len(runs))
	fps := make([]float64, len(runs))
	for i, run := range runs {
		fns[i] = run.ViolationMPKI()
		fps[i] = run.FalseDepMPKI()
	}
	return stats.Mean(fns), stats.Mean(fps)
}

// WriteMetrics renders the runner's counters plus derived simulator
// throughput (micro-ops per second of simulator wall-time) and heap
// allocations per simulated run. The cache counters always appear, even at
// zero, so "second run re-simulated nothing" is a visible row rather than
// an absent one.
func (r *Runner) WriteMetrics(w io.Writer) {
	m := r.opt.Metrics
	sim.PublishMetrics(m)
	snap := m.Snapshot()
	for _, name := range []string{
		runcache.CounterMemHits, runcache.CounterDiskHits, runcache.CounterMisses,
		runcache.CounterRunsSimulated,
	} {
		if _, ok := snap[name]; !ok {
			snap[name] = 0
		}
	}
	t := stats.NewTable("runner metrics", "counter", "value")
	for _, name := range stats.SortedKeys(snap) {
		t.AddRowf(name, snap[name])
	}
	if ns := snap[runcache.CounterSimNanos]; ns > 0 {
		uops := float64(snap[runcache.CounterSimUops])
		t.AddRow("sim.uops.per_sec", fmt.Sprintf("%.0f", uops/(float64(ns)/1e9)))
	}
	if runs := snap[runcache.CounterRunsSimulated]; runs > 0 {
		t.AddRowf("sim.allocs.per_run", snap[runcache.CounterSimAllocObjs]/runs)
	}
	fmt.Fprint(w, t)
}

// WriteFailures renders one row per failed run — config, error kind, first
// line of the error — or nothing when every run succeeded. The full errors
// (panic stacks, pipeline dumps) are not table material; they remain on the
// error values for callers that log them.
func (r *Runner) WriteFailures(w io.Writer) {
	failures := r.Failures()
	if len(failures) == 0 {
		return
	}
	t := stats.NewTable(fmt.Sprintf("failed runs (%d)", len(failures)), "config", "kind", "error")
	for _, f := range failures {
		c := f.Config
		msg := f.Err.Error()
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i] + " ..."
		}
		t.AddRow(fmt.Sprintf("%s/%s/%s", c.App, c.Machine, c.Predictor),
			string(sim.KindOf(f.Err)), msg)
	}
	fmt.Fprint(w, t)
}
