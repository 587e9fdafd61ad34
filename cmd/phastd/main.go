// phastd is the simulation-as-a-service daemon: it serves the repository's
// simulator over HTTP/JSON (POST /v1/runs, POST /v1/batch, GET /healthz,
// GET /metrics) through the full library stack — persistent run cache,
// shared worker-pool scheduler, typed failure containment — plus the serving
// mechanics of internal/server: admission control with a bounded queue and
// 429 backpressure, coalescing of identical in-flight requests, per-request
// deadlines, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	phastd -addr :8091 -cache /var/cache/phast -workers 8
//	curl -s localhost:8091/healthz
//	curl -s -X POST localhost:8091/v1/runs -d '{"config":{"App":"511.povray","Predictor":"phast"}}'
//	curl -s localhost:8091/metrics
//
// With -peers/-self the daemon becomes one member of a consistent-hash
// fleet: any member accepts any request, the ring owner of each config
// executes it exactly once cluster-wide, and local cache misses fetch from
// peer caches before simulating (DESIGN.md §15):
//
//	phastd -addr :8091 -self http://10.0.0.1:8091 \
//	       -peers http://10.0.0.1:8091,http://10.0.0.2:8091,http://10.0.0.3:8091 \
//	       -cache /var/cache/phast
//
// Fleet members self-heal (DESIGN.md §16): one failure detector per peer,
// fed by health probes (-probe-*) and by the outcome of every peer hop,
// drives Up/Suspect/Down state and remaps Down members' ring segments until
// the probes see them recover; peer hops retry with budget-aware backoff
// (-proxy-retries, -retry-backoff); GET /v1/cluster reports this member's
// view of fleet health. Benchmark a node or a fleet with cmd/phastload.
//
// With -trace-dir the daemon additionally ingests bring-your-own-workload
// traces (DESIGN.md §17): POST /v1/traces stores a validated, content-
// addressed trace and any member runs it by digest; tenancy rides the
// X-Phast-Tenant header under per-tenant storage quotas
// (-tenant-quota-bytes), an in-flight cap (-tenant-max-inflight) and
// weighted-fair scheduling (-tenant-weights), with per-tenant run logs
// behind GET /v1/results (-results-dir):
//
//	phastd -addr :8091 -trace-dir /var/phast/traces -results-dir /var/phast/results
//	curl -s -X POST --data-binary @workload.mdpt -H 'X-Phast-Tenant: acme' localhost:8091/v1/traces
//	curl -s -X POST -H 'X-Phast-Tenant: acme' localhost:8091/v1/runs \
//	     -d '{"config":{"App":"trace:<digest>","Predictor":"phast"}}'
//
// With -jobs-dir the daemon exposes the design-space autotuner (DESIGN.md
// §18): POST /v1/jobs submits a budgeted search (grid, random, successive
// halving) over predictor knobs; trials run through the same cache and
// weighted-fair machinery as interactive requests, and atomic checkpoints
// in -jobs-dir let a killed daemon resume its jobs without re-simulating:
//
//	phastd -addr :8091 -cache /var/cache/phast -jobs-dir /var/phast/jobs
//	curl -s -X POST localhost:8091/v1/jobs -d @examples/jobspecs/geometry.json
//	curl -s localhost:8091/v1/jobs/<id>
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// fatal is the one exit path for errors: message to stderr, non-zero exit.
func fatal(v ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"phastd:"}, v...)...)
	os.Exit(1)
}

// parseWeights parses -tenant-weights ("acme=3,guest=1") into the scheduler's
// weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		tenant, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want tenant=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight for tenant %q: %q (want a positive integer)", tenant, val)
		}
		out[tenant] = w
	}
	return out, nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8091", "listen address")
		workers      = flag.Int("workers", runtime.NumCPU(), "simulation worker pool size")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently admitted requests (0 = NumCPU)")
		queueDepth   = flag.Int("queue", 0, "admission queue depth beyond max-inflight (0 = 4x max-inflight)")
		cacheDir     = flag.String("cache", "", "persistent run-cache directory (empty = in-memory only)")
		cacheMax     = flag.Int64("cache-max-bytes", 0, "cap on the persistent cache size; oldest entries evicted past it (0 = unbounded)")
		n            = flag.Int("n", sim.DefaultInstructions, "default instructions when a request omits them")
		timeout      = flag.Duration("timeout", 2*time.Minute, "default per-request deadline (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 10*time.Minute, "cap on client-supplied deadlines")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight runs on shutdown")
		maxBatch     = flag.Int("max-batch", 1024, "max configs per /v1/batch request")
		peers        = flag.String("peers", "", "comma-separated base URLs of every fleet member including this one (empty = standalone)")
		self         = flag.String("self", "", "this member's base URL exactly as it appears in -peers (required with -peers)")
		vnodes       = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the consistent-hash ring")
		probeEvery   = flag.Duration("probe-interval", time.Second, "fleet health-probe period per peer")
		probeTimeout = flag.Duration("probe-timeout", 0, "single health-probe timeout (0 = half the interval)")
		downAfter    = flag.Int("probe-down-after", 3, "consecutive probe or peer-hop failures marking a peer Down (ring remap)")
		upAfter      = flag.Int("probe-up-after", 1, "consecutive probe successes restoring a Down peer")
		proxyRetries = flag.Int("proxy-retries", 3, "total attempts per proxied run, first try included")
		retryBackoff = flag.Duration("retry-backoff", 50*time.Millisecond, "first retry backoff (doubles per retry, jittered)")
		traceDir     = flag.String("trace-dir", "", "uploaded-trace store directory (empty = trace ingestion disabled)")
		traceMax     = flag.Int64("trace-max-bytes", 0, "per-trace upload size cap in bytes (0 = 64 MiB default)")
		tenantQuota  = flag.Int64("tenant-quota-bytes", 0, "per-tenant stored trace bytes quota (0 = 256 MiB default, negative = unlimited)")
		resultsDir   = flag.String("results-dir", "", "per-tenant persistent results log directory (empty = results endpoint disabled)")
		jobsDir      = flag.String("jobs-dir", "", "autotuner job checkpoint directory; enables POST /v1/jobs (empty = disabled)")
		tenantJobs   = flag.Int("tenant-max-jobs", 0, "per-tenant concurrently active job cap, 429 past it (0 = unlimited)")
		tenantMax    = flag.Int("tenant-max-inflight", 0, "per-tenant in-flight request cap, 429 past it (0 = unlimited)")
		weights      = flag.String("tenant-weights", "", "weighted-fair scheduler shares, e.g. \"acme=3,guest=1\" (absent tenants weigh 1)")
		faults       = flag.String("faults", os.Getenv("PHAST_FAULTS"), "fault-injection spec for chaos testing, e.g. \"panic=0.1,seed=7\" (default $PHAST_FAULTS)")
		metrics      = flag.Bool("metrics", true, "print the metrics table to stderr on exit")
	)
	flag.Parse()

	plan, err := faultinject.Parse(*faults)
	if err != nil {
		fatal(err)
	}
	if plan != nil {
		defer faultinject.Activate(plan)()
		fmt.Fprintln(os.Stderr, "phastd: fault injection active:", plan)
	}

	tenantWeights, err := parseWeights(*weights)
	if err != nil {
		fatal(err)
	}
	reg := stats.NewMetrics()
	runner := experiments.NewRunner(experiments.Options{
		Workers:       *workers,
		Instructions:  *n,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		Metrics:       reg,
		TenantWeights: tenantWeights,
		// A service reports per-row errors; one bad config in a batch must
		// not cancel its siblings.
		KeepGoing: true,
	})
	var fleet *cluster.Fleet
	if *peers != "" {
		fleet, err = cluster.NewFleet(*self, strings.Split(*peers, ","), *vnodes)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "phastd: fleet member", fleet)
	}
	var store *tracestore.Store
	if *traceDir != "" {
		store = tracestore.New(*traceDir, tracestore.Options{
			MaxTraceBytes:    *traceMax,
			TenantQuotaBytes: *tenantQuota,
		})
	}
	var results *tracestore.ResultLog
	if *resultsDir != "" {
		results = tracestore.NewResultLog(*resultsDir)
	}
	var jobsCtl *jobs.Controller
	if *jobsDir != "" {
		jobsCtl, err = jobs.NewController(jobs.Options{
			Dir:     *jobsDir,
			Backend: runner,
			Metrics: reg,
			// Job specs that omit apps default to the whole built-in suite,
			// matching the runner; a spec's own instruction default matches
			// the daemon's -n.
			Apps:            workload.Names(),
			Instructions:    *n,
			TenantMaxActive: *tenantJobs,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "phastd: job checkpoints in %q\n", *jobsDir)
	}
	srv := server.New(runner, server.Options{
		MaxInflight:         *maxInflight,
		QueueDepth:          *queueDepth,
		DefaultInstructions: *n,
		DefaultRunTimeout:   *timeout,
		MaxRunTimeout:       *maxTimeout,
		MaxBatch:            *maxBatch,
		Metrics:             reg,
		Fleet:               fleet,
		ProbeInterval:       *probeEvery,
		ProbeTimeout:        *probeTimeout,
		ProbeDownAfter:      *downAfter,
		ProbeUpAfter:        *upAfter,
		ProxyAttempts:       *proxyRetries,
		RetryBackoff:        *retryBackoff,
		TraceStore:          store,
		Results:             results,
		TenantMaxInflight:   *tenantMax,
		Jobs:                jobsCtl,
	})
	if fleet != nil {
		// Two-tier cache: a local miss asks the ring's other candidates for
		// their cached entry before paying for a simulation.
		runner.SetPeerFetch(srv.PeerFetch)
	}
	if store != nil {
		// Uploaded-trace resolution: local store, then (in a fleet) the
		// ring's other members — a trace uploaded anywhere runs anywhere.
		runner.SetTraceResolver(srv.TraceFetch)
		fmt.Fprintf(os.Stderr, "phastd: trace store %q (max %d bytes/trace)\n", *traceDir, store.MaxTraceBytes())
	}
	if jobsCtl != nil {
		// Resume jobs that were mid-flight when the previous process died —
		// after server.New wired the trial observer and the runner gained its
		// peer/trace tiers, so resumed trials see the full stack. The run
		// cache makes the replayed schedule free up to the kill point.
		if n := jobsCtl.ResumeAll(); n > 0 {
			fmt.Fprintf(os.Stderr, "phastd: resumed %d checkpointed job(s)\n", n)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}

	// Graceful drain on SIGTERM/SIGINT: health flips to 503, new submissions
	// are refused, the listener closes, and in-flight runs get drain-timeout
	// to finish before being hard-cancelled (typed sim.ErrCancelled rows
	// still flow back to their clients). Disk-cache writes are synchronous
	// with each run, so once the last handler returns the cache is flushed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Fleet failure detector: per-peer heartbeats drive the health-filtered
	// ring until shutdown, and are what readmits a peer that failed hops
	// marked Down (no-op standalone).
	srv.StartHealth(ctx)
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		fmt.Fprintf(os.Stderr, "phastd: draining (grace %s)\n", *drainTimeout)
		srv.StartDrain()
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "phastd: grace period expired, cancelling in-flight runs")
			srv.Abort()
			hs.Close()
		}
	}()

	fmt.Fprintf(os.Stderr, "phastd: serving on %s (workers %d, cache %q)\n", ln.Addr(), *workers, *cacheDir)
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-shutdownDone
	if jobsCtl != nil {
		// Stop job goroutines before the runner: checkpoints keep running
		// jobs resumable on the next boot.
		jobsCtl.Close()
	}
	runner.Close()
	if *metrics {
		sim.PublishMetrics(reg)
		reg.WriteTo(os.Stderr)
	}
	runner.WriteFailures(os.Stderr)
	fmt.Fprintln(os.Stderr, "phastd: drained, bye")
}
