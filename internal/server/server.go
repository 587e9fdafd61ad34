// Package server is the serving layer of the simulation stack: an HTTP/JSON
// facade (cmd/phastd) over experiments.Runner that turns the in-process
// figure-regeneration engine into a shared simulation-as-a-service backend.
// The library layers (runcache, scheduler, failure containment) carry over
// unchanged; what this package adds are the serving mechanics a networked
// daemon needs and a library does not:
//
//   - admission control: a fixed running set plus a bounded queue, with
//     explicit 429/Retry-After backpressure instead of unbounded goroutines
//     (see admission.go);
//   - request coalescing: identical in-flight configs share one execution,
//     keyed exactly like the run cache (runcache.Key), so a duplicate-heavy
//     client mix costs one simulation per unique config;
//   - per-request deadlines propagated into the context plumbing end-to-end
//     (HTTP timeout_ms → runner → pipeline cycle loop);
//   - graceful drain: health flips unhealthy, new work is refused, in-flight
//     runs finish (or are cancelled after the grace period via Abort).
//
// With Options.Fleet set the server is additionally one member of a
// consistent-hash phastd cluster: requests for keys owned elsewhere proxy to
// their owner, local cache misses try peer caches before simulating, and the
// internal peer surface (POST /v1/peer/run, GET /v1/peer/cache/{key}) serves
// the other members — see peer.go and internal/cluster.
//
// With Options.TraceStore set the server additionally ingests bring-your-
// own-workload traces (POST /v1/traces → run as Config.App =
// "trace:<digest>" from any member) under per-tenant quotas and a per-tenant
// in-flight cap, with run outcomes persisted per tenant — see traces.go and
// internal/tracestore. Tenant identity rides the X-Phast-Tenant header.
//
// With Options.Jobs set the server additionally exposes the design-space
// autotuner (POST /v1/jobs, GET/DELETE /v1/jobs/{id}): resumable search
// jobs over sim.Config knobs whose trials execute through the same runner,
// cache and tenant-fairness machinery — see internal/jobs.
//
// Endpoints: POST /v1/runs, POST /v1/batch, POST /v1/traces,
// GET /v1/traces/{digest}, GET /v1/results, POST|GET /v1/jobs,
// GET|DELETE /v1/jobs/{id}, POST /v1/peer/run, GET /v1/peer/cache/{key},
// GET|PUT /v1/peer/trace/{digest}, GET /v1/cluster,
// GET /healthz, GET /metrics.
// Results are the same stats.Run rows and sim.SimError taxonomy the library
// returns, serialised — a server-side run is byte-identical to an in-process
// one for the same config (the golden test and examples/predictorapi hold
// this).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracestore"
)

// Serving-layer counter and histogram names, published to the shared
// stats.Metrics registry next to the cache/simulator counters.
const (
	// CounterRequests counts every /v1/* request received.
	CounterRequests = "server.requests"
	// CounterAccepted counts requests that obtained a running slot.
	CounterAccepted = "server.accepted"
	// CounterRejected counts requests bounced with 429 (queue full).
	CounterRejected = "server.rejected"
	// CounterQueued counts requests that waited in the admission queue.
	CounterQueued = "server.queued"
	// CounterCoalesced counts requests served by piggybacking on an
	// identical in-flight request instead of executing their own run.
	CounterCoalesced = "server.coalesced"
	// CounterDrained counts requests refused because the server was
	// draining.
	CounterDrained = "server.drained"
	// GaugeInflight is the current number of held running slots.
	GaugeInflight = "server.inflight"
	// GaugeQueueDepth is the current number of queued requests.
	GaugeQueueDepth = "server.queue.depth"
	// HistLatency is the request latency histogram (seconds, /v1/* only).
	HistLatency = "server.latency.seconds"
	// HistQueueWait is the admission queue wait histogram (seconds).
	HistQueueWait = "server.queue.wait.seconds"
)

// Backend executes simulations for the server; *experiments.Runner is the
// production implementation. Tests substitute controllable fakes.
type Backend interface {
	RunConfigContext(ctx context.Context, cfg sim.Config) (*stats.Run, error)
	RunConfigsDetailedContext(ctx context.Context, cfgs []sim.Config) []experiments.Result
}

// CacheLookup is the optional backend capability behind the fleet's
// GET /v1/peer/cache/{key} endpoint: a local-tiers-only cache probe that
// never simulates. *experiments.Runner implements it; a backend without it
// simply answers every peer cache fetch with a 404 miss.
type CacheLookup interface {
	CachedRun(key string) (*stats.Run, bool)
}

// ScheduledBackend is the optional backend capability that routes single
// runs through the runner's weighted-fair worker pool on the context's
// tenant share, instead of inline on the request goroutine.
// *experiments.Runner implements it; when the backend does, the server
// prefers it for local execution so HTTP traffic from many tenants competes
// for simulation workers under the same fairness policy as batches — one
// tenant's request flood cannot monopolise the pool. A backend without it
// (test fakes) executes inline exactly as before tenancy existed.
type ScheduledBackend interface {
	RunConfigScheduledContext(ctx context.Context, cfg sim.Config) (*stats.Run, error)
}

// Options tune the serving layer. The zero value is usable: defaults are
// filled by New.
type Options struct {
	// MaxInflight bounds concurrently admitted requests (default NumCPU,
	// min 2). A batch request holds one slot while its rows fan out on the
	// runner's worker pool.
	MaxInflight int
	// QueueDepth bounds requests waiting for a slot (default 4×MaxInflight);
	// beyond it requests are rejected with 429.
	QueueDepth int
	// DefaultInstructions fills Config.Instructions when a request leaves it
	// zero — keep it equal to the runner's Options.Instructions so coalescing
	// keys match cache keys (default sim.DefaultInstructions).
	DefaultInstructions int
	// DefaultRunTimeout applies when a request carries no timeout_ms
	// (default 2m; 0 keeps requests deadline-free).
	DefaultRunTimeout time.Duration
	// MaxRunTimeout caps client-supplied timeouts (default 10m).
	MaxRunTimeout time.Duration
	// MaxBatch bounds configs per /v1/batch request (default 1024).
	MaxBatch int
	// Metrics is the registry serving /metrics — pass the runner's so cache,
	// simulator and server counters land in one place (default private).
	Metrics *stats.Metrics
	// Fleet makes this server one member of a consistent-hash phastd
	// cluster (nil = standalone). Any member accepts /v1/runs; the ring
	// owner of the config's cache key executes it, non-owners proxy over
	// /v1/peer/run, and local cache misses try the ring's other candidates
	// via GET /v1/peer/cache/{key} before simulating (wire the latter with
	// backend.SetPeerFetch(srv.PeerFetch) — see internal/cluster).
	Fleet *cluster.Fleet
	// PeerFetchTimeout bounds one peer cache-fetch attempt (default 2s):
	// a slow peer must cost strictly less than the simulation it would
	// save, or the fetch is abandoned as an error. Peer trace transfers
	// (fetch and replica push) get twice this budget — trace bytes are
	// bulkier than a cached result row.
	PeerFetchTimeout time.Duration

	// TraceStore holds uploaded workload traces, content-addressed (nil
	// disables POST /v1/traces and the trace peer tier — "trace:<digest>"
	// runs then succeed only for streams already provided in-process).
	// Share one store per daemon; see internal/tracestore.
	TraceStore *tracestore.Store
	// Results persists per-tenant run outcomes for GET /v1/results (nil
	// disables the endpoint; nothing is recorded).
	Results *tracestore.ResultLog
	// TenantMaxInflight bounds one tenant's concurrently admitted external
	// requests on this member — a run or a batch each hold one unit — with
	// 429 quota_exceeded past it. 0 = unlimited. This is the per-tenant
	// admission gate; MaxInflight/QueueDepth stay the whole-server bound.
	TenantMaxInflight int
	// Jobs enables the design-space autotuner surface (POST /v1/jobs and
	// friends); nil disables it — the endpoints answer 404. The server wires
	// the controller's per-trial observer into the Results log, so trial
	// rows land under the submitting tenant like any other run.
	Jobs *jobs.Controller

	// The remaining options apply only with Fleet set; zero values take the
	// defaults noted on each.

	// ProbeInterval is the failure detector's per-peer heartbeat period
	// (default 1s); ProbeTimeout bounds one probe (default interval/2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// ProbeDownAfter is the consecutive probe failures that mark a peer Down
	// and remap its ring segment (default 3); ProbeUpAfter the consecutive
	// successes that restore it (default 1).
	ProbeDownAfter int
	ProbeUpAfter   int
	// ProxyAttempts bounds total attempts per proxied run, first try
	// included (default 3); RetryBackoff is the first backoff, doubling per
	// retry with deterministic jitter (default 50ms).
	ProxyAttempts int
	RetryBackoff  time.Duration
	// BreakerThreshold is the consecutive transport failures that open a
	// peer's circuit breaker (default 3); BreakerOpenFor how long it stays
	// open before half-opening on its own (default 2s; a successful health
	// probe half-opens it early).
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	// HedgeDelay, when positive, races the second peer-cache candidate
	// after this delay instead of waiting out the first (default 0: off).
	HedgeDelay time.Duration
}

func (o Options) norm() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = runtime.NumCPU()
		if o.MaxInflight < 2 {
			o.MaxInflight = 2
		}
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	} else if o.QueueDepth == 0 {
		o.QueueDepth = 4 * o.MaxInflight
	}
	if o.DefaultInstructions <= 0 {
		o.DefaultInstructions = sim.DefaultInstructions
	}
	if o.DefaultRunTimeout == 0 {
		o.DefaultRunTimeout = 2 * time.Minute
	}
	if o.MaxRunTimeout == 0 {
		o.MaxRunTimeout = 10 * time.Minute
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.Metrics == nil {
		o.Metrics = stats.NewMetrics()
	}
	if o.PeerFetchTimeout == 0 {
		o.PeerFetchTimeout = 2 * time.Second
	}
	return o
}

// Server is the HTTP serving layer; build with New, expose via Handler.
type Server struct {
	opt     Options
	backend Backend
	metrics *stats.Metrics
	latency *stats.Histogram
	adm     *admitter
	fleet   *cluster.Fleet   // nil = standalone
	peers   *peerClient      // nil = standalone
	brk     *breakers        // nil = standalone
	prober  *cluster.Prober  // nil = standalone
	lookup  CacheLookup      // nil when the backend has no local cache probe
	sched   ScheduledBackend // nil when the backend has no fair worker pool

	store   *tracestore.Store     // nil = no trace ingestion
	results *tracestore.ResultLog // nil = no persistent results
	jobs    *jobs.Controller      // nil = no autotuner surface

	// tinflight counts each tenant's in-flight external requests for the
	// TenantMaxInflight admission gate.
	tmu       sync.Mutex
	tinflight map[string]int

	// coalesce is the server-level single-flight group, keyed exactly like
	// the run cache (runcache.Key) so "identical request" and "same cache
	// entry" are one notion. Joins bump server.coalesced at join time,
	// making coalescing observable while the flight is still running.
	coalesce runcache.Group

	draining   atomic.Bool
	hardCtx    context.Context // cancelled by Abort: hard-stops in-flight runs
	hardCancel context.CancelFunc
}

// New builds a server over backend. Pass the runner's metrics registry in
// opt.Metrics to get one unified /metrics view.
func New(backend Backend, opt Options) *Server {
	opt = opt.norm()
	s := &Server{
		opt:       opt,
		backend:   backend,
		metrics:   opt.Metrics,
		latency:   opt.Metrics.Histogram(HistLatency, stats.DefaultLatencyBuckets),
		adm:       newAdmitter(opt.Metrics, opt.MaxInflight, opt.QueueDepth),
		store:     opt.TraceStore,
		results:   opt.Results,
		tinflight: map[string]int{},
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.coalesce.OnJoin = func() { s.metrics.Add(CounterCoalesced, 1) }
	s.lookup, _ = backend.(CacheLookup)
	s.sched, _ = backend.(ScheduledBackend)
	if opt.Jobs != nil {
		s.wireJobs(opt.Jobs)
	}
	if s.store != nil {
		s.store.SetMetrics(opt.Metrics)
	}
	// Touch the headline counters so /metrics shows explicit zeros from the
	// first scrape (same contract as the runner's cache counters).
	zeros := []string{CounterRequests, CounterAccepted, CounterRejected, CounterCoalesced}
	if opt.Fleet != nil {
		s.fleet = opt.Fleet
		s.brk = newBreakers(opt.BreakerThreshold, opt.BreakerOpenFor, opt.Metrics)
		s.peers = newPeerClient(s)
		// The failure detector drives the fleet's live ring; a recovered
		// probe also half-opens the member's breaker so the next real
		// request is the trial. Built here, started by StartHealth (tests
		// that never start it keep the full ring live).
		s.prober = cluster.NewProber(opt.Fleet, cluster.ProberOptions{
			Interval:  opt.ProbeInterval,
			Timeout:   opt.ProbeTimeout,
			DownAfter: opt.ProbeDownAfter,
			UpAfter:   opt.ProbeUpAfter,
			Metrics:   opt.Metrics,
			Probe:     s.probePeer,
			OnTransition: func(member string, from, to cluster.State) {
				if to == cluster.StateUp {
					s.brk.probeRecovered(member)
				}
			},
		})
		zeros = append(zeros, CounterProxied, CounterProxyErrors,
			CounterRetries, CounterBreakerOpened, CounterBreakerShortCircuit,
			CounterHedgeFired, CounterHedgeWins,
			runcache.CounterPeerHits, runcache.CounterPeerMisses, runcache.CounterPeerErrors)
	}
	if s.store != nil {
		zeros = append(zeros, CounterTraceUploads)
		if s.fleet != nil {
			zeros = append(zeros, CounterTraceFetched, CounterTraceReplicated,
				CounterTraceReplErrors, CounterPeerTraceServed)
		}
	}
	for _, c := range zeros {
		opt.Metrics.Add(c, 0)
	}
	return s
}

// Metrics returns the registry the server reports to.
func (s *Server) Metrics() *stats.Metrics { return s.metrics }

// Handler returns the server's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/runs", s.instrumented(s.handleRuns))
	mux.HandleFunc("/v1/batch", s.instrumented(s.handleBatch))
	mux.HandleFunc("/v1/traces", s.instrumented(s.handleTraceUpload))
	mux.HandleFunc("/v1/traces/", s.instrumented(s.handleTraceGet))
	mux.HandleFunc("/v1/results", s.instrumented(s.handleResults))
	mux.HandleFunc("/v1/jobs", s.instrumented(s.handleJobs))
	mux.HandleFunc("/v1/jobs/", s.instrumented(s.handleJob))
	mux.HandleFunc("/v1/peer/run", s.instrumented(s.handlePeerRun))
	mux.HandleFunc("/v1/peer/cache/", s.handlePeerCache)
	mux.HandleFunc("/v1/peer/trace/", s.handlePeerTrace)
	mux.HandleFunc("/v1/cluster", s.handleCluster)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// probePeer is the failure detector's health check: the stock GET /healthz
// behind the same injected link faults real peer traffic sees — a
// partitioned link must look down to the detector too, or chaos plans
// could never drive remapping.
func (s *Server) probePeer(ctx context.Context, member string) error {
	if err := linkFault(ctx, member, ""); err != nil {
		return err
	}
	return cluster.HTTPHealthz(ctx, member)
}

// StartHealth launches the fleet failure detector: one background probe
// loop per peer, running until ctx is cancelled. No-op standalone. Without
// it (unit tests, single-node smoke) the live ring stays the full ring.
func (s *Server) StartHealth(ctx context.Context) {
	if s.prober != nil {
		s.prober.Start(ctx)
	}
}

// handleCluster serves GET /v1/cluster: this member's view of fleet health
// — per-peer failure-detector state, live-ring membership, and circuit
// breakers. Standalone servers answer 404: there is no cluster to report.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	if s.fleet == nil {
		writeJSON(w, http.StatusNotFound, struct {
			Error ErrorBody `json:"error"`
		}{ErrorBody{Kind: KindNotFound, Message: "not a fleet member"}})
		return
	}
	live := map[string]bool{}
	for _, m := range s.fleet.LiveMembers() {
		live[m] = true
	}
	selfState := "up"
	if s.Draining() {
		selfState = "draining"
	}
	members := []ClusterMember{{
		URL: s.fleet.Self(), Self: true, State: selfState, Live: live[s.fleet.Self()],
	}}
	for _, ph := range s.prober.States() {
		members = append(members, ClusterMember{
			URL:              ph.Member,
			State:            ph.State.String(),
			Live:             live[ph.Member],
			Breaker:          s.brk.state(ph.Member),
			ConsecutiveFails: ph.ConsecutiveFails,
			LastError:        ph.LastError,
		})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].URL < members[j].URL })
	writeJSON(w, http.StatusOK, ClusterResponse{
		Self:        s.fleet.Self(),
		FleetSize:   s.fleet.Size(),
		LiveMembers: s.fleet.LiveSize(),
		Members:     members,
	})
}

// StartDrain begins graceful shutdown: /healthz flips to 503 (so load
// balancers stop routing here) and new run submissions are refused, while
// already-admitted requests keep running. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Abort hard-cancels every in-flight run (typed sim.ErrCancelled rows flow
// back to their clients). The escape hatch when the drain grace period
// expires; StartDrain first for a graceful exit.
func (s *Server) Abort() {
	s.StartDrain()
	s.hardCancel()
}

// instrumented wraps a /v1 handler with the request counter and the latency
// histogram.
func (s *Server) instrumented(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Add(CounterRequests, 1)
		start := time.Now()
		h(w, r)
		s.latency.ObserveDuration(time.Since(start))
	}
}

// requestContext derives one request's run context: the HTTP request context
// (client disconnect), the drain hard-stop, and the per-request deadline.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.hardCtx, cancel)
	if d := timeoutOf(timeoutMS, s.opt.DefaultRunTimeout, s.opt.MaxRunTimeout); d > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, d)
		inner := cancel
		cancel = func() { cancelT(); inner() }
	}
	outer := cancel
	return ctx, func() { stop(); outer() }
}

// decode parses a JSON request body of at most limit bytes.
func decode(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// normalize fills a request config's defaults the way the runner would, so
// coalescing keys, cache keys and result rows all see the same resolved
// config.
func (s *Server) normalize(cfg sim.Config) sim.Config {
	if cfg.Instructions == 0 {
		cfg.Instructions = s.opt.DefaultInstructions
	}
	return cfg.Normalized()
}

// runOne executes one config through coalescing → routing → admission →
// backend. Identical in-flight configs share one execution: the first
// request leads (and pays admission), duplicates wait for its result without
// consuming slots — the single-flight keying is the run cache's, so
// "identical" means "would hit the same cache entry". A waiter whose own
// deadline expires unblocks with its context error while the flight
// continues for the others; if the leader fails (including an admission
// rejection), every waiter receives the leader's error, and if the backend
// panics past its own recovery (the panic then propagates on the leader's
// goroutine, where net/http contains it) every waiter receives an internal
// error instead of hanging.
//
// In a fleet, a leader whose key belongs to another member proxies the run
// to that owner instead of admitting it locally (local=false); the owner's
// own coalescing group then joins duplicates arriving from every member, so
// a viral config executes once per fleet. local=true (the /v1/peer/run
// path, or a proxy fallback) always executes here. The proxying node holds
// no admission slot while it waits — it is parked on network I/O; the
// owner's admission control is the fleet's simulation bound for that key.
func (s *Server) runOne(ctx context.Context, cfg sim.Config, local bool) (*stats.Run, error) {
	key := runcache.Key(cfg)
	return s.coalesce.Do(ctx, key, func() (*stats.Run, error) {
		if !local && s.fleet != nil {
			if owner := s.fleet.Owner(key); owner != s.fleet.Self() {
				s.metrics.Add(CounterProxied, 1)
				run, err := s.peers.proxyRun(ctx, owner, key, cfg)
				if err == nil || !proxyFallback(ctx, err) {
					return run, err
				}
				// The owner is unreachable (or draining): degrade to
				// executing locally rather than failing the request.
				// Fleet-wide dedup degrades with it, but the cache's peer
				// tier still recovers anything the fleet has already
				// simulated.
				s.metrics.Add(CounterProxyErrors, 1)
			}
		}
		release, err := s.adm.admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		return s.execute(ctx, cfg)
	})
}

// execute runs one admitted config on the backend, through the runner's
// weighted-fair worker pool (on ctx's tenant share) when the backend has
// one, inline otherwise.
func (s *Server) execute(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	if s.sched != nil {
		return s.sched.RunConfigScheduledContext(ctx, cfg)
	}
	return s.backend.RunConfigContext(ctx, cfg)
}

// refuse reports (and counts) a drain-time refusal.
func (s *Server) refuse(w http.ResponseWriter) {
	s.metrics.Add(CounterDrained, 1)
	writeError(w, ErrDraining)
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.handleRun(w, r, false)
}

// handleRun serves one run request; local=true (the /v1/peer/run surface)
// pins execution to this member regardless of ring ownership.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, local bool) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	if s.Draining() {
		s.refuse(w)
		return
	}
	tenant, terr := tenantOf(r)
	if terr != nil {
		writeJSON(w, http.StatusBadRequest, struct {
			Error ErrorBody `json:"error"`
		}{ErrorBody{Kind: KindBadRequest, Message: terr.Error()}})
		return
	}
	var req RunRequest
	if err := decode(w, r, 1<<20, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, struct {
			Error ErrorBody `json:"error"`
		}{ErrorBody{Kind: KindBadRequest, Message: "bad run request: " + err.Error()}})
		return
	}
	// The per-tenant gate applies at the external edge only: a proxied run
	// was already charged on the member that accepted it.
	if !local {
		trelease, err := s.tenantAdmit(tenant)
		if err != nil {
			writeError(w, err)
			return
		}
		defer trelease()
	}
	cfg := s.normalize(req.Config)
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	ctx = experiments.WithTenant(ctx, tenant)
	run, err := s.runOne(ctx, cfg, local)
	row := RunResult{Config: cfg, Run: run}
	if err != nil {
		_, body := errorBody(err)
		row.Error = &body
		if !local {
			s.recordResult(tenant, row)
		}
		writeError(w, err)
		return
	}
	if !local {
		s.recordResult(tenant, row)
	}
	writeJSON(w, http.StatusOK, row)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	if s.Draining() {
		s.refuse(w)
		return
	}
	tenant, terr := tenantOf(r)
	if terr != nil {
		writeJSON(w, http.StatusBadRequest, struct {
			Error ErrorBody `json:"error"`
		}{ErrorBody{Kind: KindBadRequest, Message: terr.Error()}})
		return
	}
	var req BatchRequest
	if err := decode(w, r, 64<<20, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, struct {
			Error ErrorBody `json:"error"`
		}{ErrorBody{Kind: KindBadRequest, Message: "bad batch request: " + err.Error()}})
		return
	}
	if len(req.Configs) == 0 || len(req.Configs) > s.opt.MaxBatch {
		writeJSON(w, http.StatusBadRequest, struct {
			Error ErrorBody `json:"error"`
		}{ErrorBody{Kind: KindBadRequest,
			Message: fmt.Sprintf("batch size %d out of range [1, %d]", len(req.Configs), s.opt.MaxBatch)}})
		return
	}
	cfgs := make([]sim.Config, len(req.Configs))
	for i, cfg := range req.Configs {
		cfgs[i] = s.normalize(cfg)
	}
	// One tenant-gate unit and one admission slot per batch request;
	// row-level parallelism is bounded by the runner's shared worker pool
	// (on this tenant's weighted-fair share), and row-level dedup by the run
	// cache's own single-flight layer.
	trelease, err := s.tenantAdmit(tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	defer trelease()
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	ctx = experiments.WithTenant(ctx, tenant)
	release, err := s.adm.admit(ctx)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	results := s.backend.RunConfigsDetailedContext(ctx, cfgs)
	resp := BatchResponse{Results: make([]RunResult, len(results))}
	for i, res := range results {
		row := RunResult{Config: res.Config, Run: res.Run}
		if res.Err != nil {
			_, body := errorBody(res.Err)
			row.Error = &body
		}
		resp.Results[i] = row
		s.recordResult(tenant, row)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sim.PublishMetrics(s.metrics) // fold in the process-wide sim counters
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, MetricsResponse{
			Counters:   s.metrics.Snapshot(),
			Histograms: s.metrics.Histograms(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.metrics.String())
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeJSON(w, http.StatusMethodNotAllowed, struct {
		Error ErrorBody `json:"error"`
	}{ErrorBody{Kind: KindBadRequest, Message: "use " + allow}})
}

// writeError maps a failed run onto its status + body; 429/503 carry a
// Retry-After hint.
func writeError(w http.ResponseWriter, err error) {
	status, body := errorBody(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter)
	}
	writeJSON(w, status, struct {
		Error ErrorBody `json:"error"`
	}{body})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	if err := enc.Encode(v); err != nil && !errors.Is(err, http.ErrHandlerTimeout) {
		// The status line is gone; nothing useful left to send.
		return
	}
}
