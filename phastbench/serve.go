package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/runcache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
)

// servePoolApps are the apps of the served config pool: none is slow to
// simulate, so warming the pool stays a small part of set-up.
var servePoolApps = []string{"511.povray", "519.lbm", "541.leela", "500.perlbench_3",
	"502.gcc_1", "531.deepsjeng", "557.xz_1", "525.x264_3"}

// serveVariants vary the pool's configs beyond app and predictor.
var serveVariants = []func(*sim.Config){
	func(*sim.Config) {},
	func(c *sim.Config) { c.FwdFilterOff = true },
	func(c *sim.Config) { c.BranchPredictor = "tage" },
	func(c *sim.Config) { c.Machine = "skylake" },
}

const (
	fleetSize    = 3
	serveClients = 2
	// coldPct of the requests are first-seen configs; the rest draw from
	// the pool set-up simulated.
	coldPct = 3
	// reqHeader carries the benchmark's request ID into traced members.
	reqHeader = "X-Phastbench-Req"
)

// serveSize scales the serve-fleet workload.
type serveSize struct {
	apps, variants int
	poolN, coldN   int
	chunk          int // requests per wall_s chunk
}

func serveSizeOf(b *bench) serveSize {
	if b.tiny {
		return serveSize{apps: 2, variants: 1, poolN: 2_000, coldN: 1_000, chunk: 50}
	}
	return serveSize{apps: len(servePoolApps), variants: len(serveVariants), poolN: 20_000, coldN: 5_000, chunk: 1_000}
}

// servePool builds the pool: apps × predictors × variants, each app on one
// stream seed derived from seed.
func servePool(seed int64, sz serveSize) []sim.Config {
	var pool []sim.Config
	for _, app := range servePoolApps[:sz.apps] {
		for _, pred := range fig15Preds() {
			for _, v := range serveVariants[:sz.variants] {
				c := sim.Config{App: app, Predictor: pred, Instructions: sz.poolN, Seed: streamSeed(seed, app)}
				v(&c)
				pool = append(pool, c.Normalized())
			}
		}
	}
	return pool
}

// serveReq is one planned request.
type serveReq struct {
	cold bool
	pool int // pool index when !cold
	cfg  sim.Config
	body []byte
}

// requestPlan derives request i from the workload seed alone, so the same
// seed replays the same request sequence.
type requestPlan struct {
	seed   uint64
	sz     serveSize
	pool   []sim.Config
	bodies [][]byte
}

func (p *requestPlan) at(i int64) serveReq {
	r := splitmix(splitmix(p.seed) + uint64(i))
	if r%100 >= coldPct {
		k := int((r >> 8) % uint64(len(p.pool)))
		return serveReq{pool: k, cfg: p.pool[k], body: p.bodies[k]}
	}
	app := servePoolApps[(r>>16)%uint64(p.sz.apps)]
	cfg := sim.Config{App: app, Predictor: "phast", Instructions: p.sz.coldN,
		Seed: int64(splitmix(r)>>2) | 1}.Normalized()
	return serveReq{cold: true, cfg: cfg, body: runBody(cfg)}
}

func runBody(cfg sim.Config) []byte {
	body, _ := json.Marshal(server.RunRequest{Config: cfg}) // plain scalars: cannot fail
	return body
}

// wireRow is the exact body phastd returns for a successful run of cfg.
func wireRow(cfg sim.Config, run *stats.Run) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "\t")
	_ = enc.Encode(server.RunResult{Config: cfg, Run: run}) // cannot fail, see runBody
	return buf.Bytes()
}

// fleetNode is one in-process phastd member on a loopback listener.
type fleetNode struct {
	url    string
	runner *experiments.Runner
	reg    *stats.Metrics
	hs     *http.Server
	served chan struct{} // closed when Serve has returned
}

// fleet is the in-process phastd fleet, built like the fleet tests build
// theirs: listeners first, so every member knows the full URL list.
type fleet struct {
	nodes []*fleetNode
	urls  []string
	ring  *cluster.Fleet // ownership view for classifying requests
	probe *traceProbe    // nil when untraced
}

func bootFleet(b *bench, sz serveSize, probe *traceProbe) (*fleet, error) {
	f := &fleet{probe: probe}
	lns := make([]net.Listener, fleetSize)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i := range lns {
		fl, err := cluster.NewFleet(f.urls[i], f.urls, 0)
		if err == nil && f.ring == nil {
			f.ring = fl
		}
		var dir string
		if err == nil {
			dir, err = b.mkdirTemp("node-")
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		reg := stats.NewMetrics()
		runner := experiments.NewRunner(experiments.Options{
			Instructions: sz.poolN,
			CacheDir:     dir,
			Metrics:      reg,
			KeepGoing:    true,
			Workers:      runtime.NumCPU(),
		})
		var backend server.Backend = runner
		if probe != nil {
			backend = &tracedBackend{Runner: runner, p: probe}
		}
		srv := server.New(backend, server.Options{Metrics: reg, Fleet: fl, DefaultInstructions: sz.poolN})
		var handler http.Handler = srv.Handler()
		if probe != nil {
			runner.SetPeerFetch(probe.peerFetch(srv.PeerFetch))
			handler = probe.middleware(handler)
		} else {
			runner.SetPeerFetch(srv.PeerFetch)
		}
		n := &fleetNode{url: f.urls[i], runner: runner, reg: reg,
			hs: &http.Server{Handler: handler}, served: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(n.served)
			_ = n.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
		}(lns[i])
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

// close shuts every member down and waits until each has stopped serving.
func (f *fleet) close() {
	for _, n := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.hs.Shutdown(ctx); err != nil {
			n.hs.Close()
		}
		cancel()
		<-n.served
		n.runner.Close()
	}
}

// sum is the fleet-wide value of one counter.
func (f *fleet) sum(name string) uint64 {
	var total uint64
	for _, n := range f.nodes {
		total += n.reg.Get(name)
	}
	return total
}

// reqSample is one completed request as its client saw it.
type reqSample struct {
	id    int64
	cold  bool
	local bool  // sent to the config's ring owner
	lat   int64 // ns
	done  int64 // completion, ns since the loop started
}

// coldRow is a served first-seen config, checked after the loop.
type coldRow struct {
	cfg  sim.Config
	body []byte
}

// serveLoop runs the closed loop: serveClients clients, each sending its
// next request only after the previous reply, round-robin over the members,
// until d has passed. Pool replies are checked byte for byte as they arrive.
func serveLoop(b *bench, f *fleet, plan *requestPlan, want [][]byte, next *atomic.Int64, d time.Duration) ([]reqSample, []coldRow) {
	var mu sync.Mutex
	var samples []reqSample
	var colds []coldRow
	var wg sync.WaitGroup
	t0 := nanotime()
	deadline := t0 + d.Nanoseconds()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
			defer client.CloseIdleConnections()
			var mine []reqSample
			var myColds []coldRow
			for nanotime() < deadline {
				i := next.Add(1) - 1
				req := plan.at(i)
				member := int(i % int64(len(f.urls)))
				hreq, err := http.NewRequest(http.MethodPost, f.urls[member]+"/v1/runs", bytes.NewReader(req.body))
				if err != nil {
					b.attempt(1)
					b.fail("request %d: %v", i, err)
					continue
				}
				id := strconv.FormatInt(i, 10)
				if f.probe != nil {
					hreq.Header.Set(reqHeader, id)
				}
				sid, spanStart := f.probe.begin()
				start := nanotime()
				resp, err := client.Do(hreq)
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				end := nanotime()
				f.probe.end(sid, spanStart, "client", id)
				b.attempt(1)
				switch {
				case err != nil:
					b.fail("request %d: %v", i, err)
					continue
				case resp.StatusCode != http.StatusOK:
					b.fail("request %d: status %d: %s", i, resp.StatusCode, body)
					continue
				case req.cold:
					myColds = append(myColds, coldRow{req.cfg, body})
				case !bytes.Equal(body, want[req.pool]):
					b.fail("request %d: pool row differs from the in-process run:\n got  %s\n want %s", i, body, want[req.pool])
				}
				local := f.ring.Owner(runcache.Key(req.cfg)) == f.urls[member]
				mine = append(mine, reqSample{id: i, cold: req.cold, local: local, lat: end - start, done: end - t0})
			}
			mu.Lock()
			samples = append(samples, mine...)
			colds = append(colds, myColds...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, colds
}

// warmPool sends every pool config once, round-robin over the members with
// serveClients concurrent clients, and returns the replies.
func warmPool(f *fleet, pool []sim.Config) ([][]byte, error) {
	out := make([][]byte, len(pool))
	errs := make([]error, len(pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pool) {
					return
				}
				resp, err := client.Post(f.urls[i%len(f.urls)]+"/v1/runs", "application/json", bytes.NewReader(runBody(pool[i])))
				if err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = io.ReadAll(resp.Body)
				resp.Body.Close()
				if errs[i] == nil && resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, out[i])
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warming %s/%s: %w", pool[i].App, pool[i].Predictor, err)
		}
	}
	return out, nil
}

// inProcess runs cfgs with sim.Run on serveClients goroutines.
func inProcess(cfgs []sim.Config) ([]*stats.Run, error) {
	runs := make([]*stats.Run, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cfgs) {
					return
				}
				runs[i], errs[i] = sim.Run(cfgs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", cfgs[i].App, cfgs[i].Predictor, err)
		}
	}
	return runs, nil
}

// setUpFleet boots a fleet and warms pool through it. It returns the fleet,
// the warm replies and the seconds the two took.
func setUpFleet(b *bench, sz serveSize, probe *traceProbe, pool []sim.Config) (*fleet, [][]byte, float64, error) {
	t0 := time.Now()
	f, err := bootFleet(b, sz, probe)
	if err != nil {
		return nil, nil, 0, err
	}
	warm, err := warmPool(f, pool)
	if err != nil {
		f.close()
		return nil, nil, 0, err
	}
	return f, warm, time.Since(t0).Seconds(), nil
}

// runServe is the serve-fleet workload: a closed loop of serveClients
// clients over an in-process three-member phastd fleet. Most requests hit
// the pool set-up simulated; coldPct% are first-seen configs the owner
// simulates and writes to disk.
func runServe(b *bench) error {
	sz := serveSizeOf(b)
	pool := servePool(b.seed, sz)
	var probe *traceProbe
	if b.tr != nil {
		probe = &traceProbe{b: b}
	}

	// Set-up: boot a fleet and warm a pool through it, setupReps times in
	// all; setup_s is the median. The measured fleet is the last one set up
	// before the loop. The others warm pools of their own stream seeds and
	// are closed again, so every repetition generates its streams and
	// simulates its rows from cold instead of finding them in sim's
	// process-wide trace pool. The later ones run after the measured loop,
	// so the median samples host speed over the whole run, as the loop's own
	// figures do.
	reps := setupReps(b)
	before := reps - reps/2
	var times []float64
	otherSetUp := func(r int) error {
		g, _, secs, err := setUpFleet(b, sz, probe, servePool(int64(splitmix(uint64(b.seed)+uint64(r)+1)>>1), sz))
		if err != nil {
			return err
		}
		g.close()
		times = append(times, secs)
		return nil
	}
	for r := 0; r < before-1; r++ {
		if err := otherSetUp(r); err != nil {
			return err
		}
	}
	f, warm, secs, err := setUpFleet(b, sz, probe, pool)
	if err != nil {
		return err
	}
	defer f.close()
	times = append(times, secs)

	refs, err := inProcess(pool)
	if err != nil {
		return fmt.Errorf("in-process pool runs: %w", err)
	}
	want := make([][]byte, len(pool))
	for i := range pool {
		want[i] = wireRow(pool[i], refs[i])
		b.attempt(1)
		if !bytes.Equal(warm[i], want[i]) {
			b.fail("pool row %s/%s differs from the in-process run", pool[i].App, pool[i].Predictor)
		}
	}

	plan := &requestPlan{seed: uint64(b.seed), sz: sz, pool: pool, bodies: make([][]byte, len(pool))}
	for i := range pool {
		plan.bodies[i] = runBody(pool[i])
	}
	var next atomic.Int64
	// An untimed warm-up lets connections open and the heap settle first.
	_, colds := serveLoop(b, f, plan, want, &next, b.seconds/20)
	d := b.seconds
	if probe != nil {
		d /= 2
	}
	samples, timedColds := serveLoop(b, f, plan, want, &next, d)
	colds = append(colds, timedColds...)
	elapsed := d.Seconds()
	var traced []reqSample
	if probe != nil {
		probe.on.Store(true)
		var tcolds []coldRow
		traced, tcolds = serveLoop(b, f, plan, want, &next, d)
		probe.on.Store(false)
		colds = append(colds, tcolds...)
	}
	b.measured()
	for r := before; r < reps; r++ {
		if err := otherSetUp(r); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "phastbench: %s: set-up seconds %.3f\n", b.name, times)
	b.setE2E("setup_s", median(times), "s")

	if err := checkColds(b, colds); err != nil {
		return err
	}
	unique := map[string]bool{}
	for _, c := range colds {
		unique[runcache.Key(c.cfg)] = true
	}
	b.attempt(1)
	if got, want := f.sum(runcache.CounterRunsSimulated), uint64(len(pool)+len(unique)); got != want {
		b.fail("fleet simulated %d runs, want %d (pool %d + unique cold %d)", got, want, len(pool), len(unique))
	}

	wall, uops := chunkStats(samples, sz.chunk, float64(sz.coldN))
	b.setE2E("uops_per_s", uops, "uop/s")
	b.setE2E("wall_s", wall, "s")
	if probe == nil {
		return nil
	}
	servingMetrics(b, samples, elapsed)
	b.setLayer("trace.overhead.serve_rps", float64(len(traced))/d.Seconds()-float64(len(samples))/elapsed, "1/s")
	probe.layerMetrics(traced, f)
	b.setLayer("sim.rows_digest", rowsDigest(refs), "hash")

	// The simulator's inner layers on a slice of the pool: every predictor
	// on the first two apps, default pipeline options.
	var sample []sim.Config
	var sampleRefs []*stats.Run
	for i, c := range pool {
		if c.App != servePoolApps[0] && c.App != servePoolApps[1] || c.FwdFilterOff || c.BranchPredictor != "tagescl" || c.Machine != "alderlake" {
			continue
		}
		sample = append(sample, c)
		sampleRefs = append(sampleRefs, refs[i])
	}
	_, err = coreLayers(b, sample, sampleRefs)
	return err
}

// coldChecks bounds how many served first-seen rows are re-simulated in
// process after the loop; the rows checked are spread over the run.
const coldChecks = 256

// checkColds compares served first-seen rows with in-process runs of the
// same configs: every row, or coldChecks of them spread evenly.
func checkColds(b *bench, colds []coldRow) error {
	if len(colds) > coldChecks {
		step := float64(len(colds)) / coldChecks
		sample := make([]coldRow, coldChecks)
		for i := range sample {
			sample[i] = colds[int(float64(i)*step)]
		}
		colds = sample
	}
	cfgs := make([]sim.Config, len(colds))
	for i, c := range colds {
		cfgs[i] = c.cfg
	}
	runs, err := inProcess(cfgs)
	if err != nil {
		return fmt.Errorf("in-process cold runs: %w", err)
	}
	for i, c := range colds {
		b.attempt(1)
		if want := wireRow(c.cfg, runs[i]); !bytes.Equal(c.body, want) {
			b.fail("cold row %s seed %d differs from the in-process run:\n got  %s\n want %s", c.cfg.App, c.cfg.Seed, c.body, want)
		}
	}
	return nil
}

// chunkStats cuts the samples, in completion order, into chunks of n
// requests and returns the fast-quartile chunk time in seconds and the
// upper quartile of the rates of micro-ops the fleet simulated for the
// chunks' cold requests.
func chunkStats(samples []reqSample, n int, coldUops float64) (float64, float64) {
	sorted := append([]reqSample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].done < sorted[j].done })
	var secs, rates []float64
	prev := int64(0)
	for lo := 0; lo+n <= len(sorted); lo += n {
		end := sorted[lo+n-1].done
		d := float64(end-prev) / 1e9
		colds := 0
		for _, s := range sorted[lo : lo+n] {
			if s.cold {
				colds++
			}
		}
		secs = append(secs, d)
		rates = append(rates, float64(colds)*coldUops/d)
		prev = end
	}
	if len(secs) == 0 {
		return 0, 0
	}
	return fastQuartile(secs), quantile(rates, 0.75)
}

// latencies returns the latencies in ms of the samples keep selects.
func latencies(samples []reqSample, keep func(reqSample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	return out
}

// servingMetrics reports the untraced serving figures: throughput and hit
// and cold latency percentiles with their sample counts.
func servingMetrics(b *bench, samples []reqSample, elapsed float64) {
	hits := latencies(samples, func(s reqSample) bool { return !s.cold })
	colds := latencies(samples, func(s reqSample) bool { return s.cold })
	b.setLayer("serve.rps", float64(len(samples))/elapsed, "1/s")
	b.setLayer("serve.hit_samples", float64(len(hits)), "count")
	b.setLayer("serve.cold_samples", float64(len(colds)), "count")
	b.setLayer("serve.hit_p50_ms", quantile(hits, 0.5), "ms")
	b.setLayer("serve.hit_p99_ms", quantile(hits, 0.99), "ms")
	b.setLayer("serve.cold_p50_ms", quantile(colds, 0.5), "ms")
	b.setLayer("serve.cold_p90_ms", quantile(colds, 0.9), "ms")
}

// reqKey is the context key of the benchmark's request ID inside a member.
type reqKey struct{}

// traceProbe records spans at the serving layer's boundaries: the client,
// each member's HTTP handler, the backend calls and the peer-fetch tier.
// Decorators consult on, so one fleet serves both the untraced and the
// traced phase of a traced run.
type traceProbe struct {
	b  *bench
	on atomic.Bool
}

func (p *traceProbe) begin() (int64, int64) {
	if p == nil || !p.on.Load() {
		return 0, 0
	}
	return p.b.tr.begin()
}

func (p *traceProbe) end(id, start int64, name, req string) {
	if id != 0 {
		p.b.tr.end(id, start, name, 0, req, 0, 0)
	}
}

// middleware records a span per request a member receives and puts the
// request ID into the request context, where the backend finds it.
func (p *traceProbe) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, start := p.begin()
		if id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get(reqHeader)
		if req != "" {
			r = r.WithContext(context.WithValue(r.Context(), reqKey{}, req))
		}
		h.ServeHTTP(w, r)
		path := r.URL.Path
		if strings.HasPrefix(path, "/v1/peer/cache/") {
			path = "/v1/peer/cache" // drop the key
		}
		p.end(id, start, "server.handler"+path, req)
	})
}

// peerFetch wraps a member's peer cache-fetch tier with a span per call.
func (p *traceProbe) peerFetch(f runcache.PeerFetchFunc) runcache.PeerFetchFunc {
	return func(ctx context.Context, key string) (*stats.Run, bool) {
		id, start := p.begin()
		run, ok := f(ctx, key)
		p.end(id, start, "runcache.peer_fetch", "")
		return run, ok
	}
}

// tracedBackend decorates a member's Runner, which the server uses as its
// Backend, CacheLookup and ScheduledBackend, with a span per call.
type tracedBackend struct {
	*experiments.Runner
	p *traceProbe
}

func (t *tracedBackend) span(ctx context.Context, cfg sim.Config) func() {
	id, start := t.p.begin()
	req, _ := ctx.Value(reqKey{}).(string)
	name := "server.backend.hit"
	if cfg.Instructions != t.Runner.Opt().Instructions {
		name = "server.backend.cold"
	}
	return func() { t.p.end(id, start, name, req) }
}

func (t *tracedBackend) RunConfigContext(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	defer t.span(ctx, cfg)()
	return t.Runner.RunConfigContext(ctx, cfg)
}

func (t *tracedBackend) RunConfigScheduledContext(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	defer t.span(ctx, cfg)()
	return t.Runner.RunConfigScheduledContext(ctx, cfg)
}

func (t *tracedBackend) CachedRun(key string) (*stats.Run, bool) {
	id, start := t.p.begin()
	run, ok := t.Runner.CachedRun(key)
	t.p.end(id, start, "server.CachedRun", "")
	return run, ok
}

// layerMetrics derives the serving layers' metrics from the traced phase.
func (p *traceProbe) layerMetrics(traced []reqSample, f *fleet) {
	b := p.b
	localHits := latencies(traced, func(s reqSample) bool { return !s.cold && s.local })
	peerHits := latencies(traced, func(s reqSample) bool { return !s.cold && !s.local })
	local, peer := quantile(localHits, 0.5), quantile(peerHits, 0.5)
	b.setLayer("server.hit_local_p50_ms", local, "ms")
	b.setLayer("server.hit_peer_p50_ms", peer, "ms")
	b.setLayer("cluster.peer_hop_ms", peer-local, "ms")

	backend := map[string]float64{}
	var lookups []float64
	for _, s := range b.tr.spans("server.backend.hit") {
		lookups = append(lookups, float64(s.dur())/1e3)
		if s.Req != "" {
			backend[s.Req] = float64(s.dur())
		}
	}
	var self []float64
	for _, s := range traced {
		if bt, ok := backend[strconv.FormatInt(s.id, 10)]; ok && !s.cold && s.local {
			self = append(self, (float64(s.lat)-bt)/1e3)
		}
	}
	b.setLayer("server.self_us", quantile(self, 0.5), "us")
	b.setLayer("server.backend_lookup_us", quantile(lookups, 0.5), "us")
	var runs, fetches []float64
	for _, s := range b.tr.spans("server.backend.cold") {
		runs = append(runs, float64(s.dur())/1e6)
	}
	for _, s := range b.tr.spans("runcache.peer_fetch") {
		fetches = append(fetches, float64(s.dur())/1e6)
	}
	b.setLayer("server.backend_run_ms", quantile(runs, 0.5), "ms")
	b.setLayer("runcache.peer_fetch_ms", quantile(fetches, 0.5), "ms")
	for name, counter := range map[string]string{
		"runcache.peer_hits":   runcache.CounterPeerHits,
		"runcache.peer_misses": runcache.CounterPeerMisses,
		"server.proxied":       server.CounterProxied,
		"server.coalesced":     server.CounterCoalesced,
		"server.rejected":      server.CounterRejected,
		"runs.simulated":       runcache.CounterRunsSimulated,
	} {
		b.setLayer(name, float64(f.sum(counter)), "count")
	}
}
