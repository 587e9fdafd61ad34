package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// configOwnedBy searches seeds until it finds a config whose cache key the
// given member owns in fleet's live ring.
func configOwnedBy(t testing.TB, fleet *cluster.Fleet, owner string) sim.Config {
	t.Helper()
	for seed := int64(1); seed < 10_000; seed++ {
		cfg := sim.Config{App: "511.povray", Predictor: "phast", Instructions: 8_000, Seed: seed}
		if fleet.Owner(runcache.Key(cfg.Normalized())) == owner {
			return cfg
		}
	}
	t.Fatal("no config owned by " + owner)
	return sim.Config{}
}

// stallListener accepts connections and never responds — the shape of a
// wedged (not crashed) peer: TCP works, HTTP hangs.
func stallListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				<-done
				conn.Close()
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestProxyBudgetExhausted504 is the deadline-budgeting regression test:
// a proxied run whose owner hangs past the request deadline must come back
// as 504 Gateway Timeout with the typed "timeout" kind — not a generic 500,
// not a 200 with a null run, and no local-execution fallback (the budget is
// spent; local execution could only blow the deadline again).
func TestProxyBudgetExhausted504(t *testing.T) {
	stalled := stallListener(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	fleet, err := cluster.NewFleet(self, []string{self, stalled}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := stats.NewMetrics()
	r := experiments.NewRunner(experiments.Options{Instructions: 8_000, Metrics: reg, KeepGoing: true})
	defer r.Close()
	srv := New(r, Options{Metrics: reg, Fleet: fleet, RetryBackoff: 10 * time.Millisecond})
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Listener.Close()
	hs.Listener = ln
	hs.Start()
	defer hs.Close()

	cfg := configOwnedBy(t, fleet, stalled)
	var got struct {
		Error ErrorBody `json:"error"`
	}
	start := time.Now()
	status, _ := postJSON(t, &http.Client{}, self+"/v1/runs",
		RunRequest{Config: cfg, TimeoutMS: 400}, &got)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", status, got.Error)
	}
	if got.Error.Kind != string(sim.ErrTimeout) {
		t.Errorf("error kind = %q, want %q", got.Error.Kind, sim.ErrTimeout)
	}
	if elapsed > 2*time.Second {
		t.Errorf("504 took %v; budget was 400ms", elapsed)
	}
	if sims := reg.Get(runcache.CounterRunsSimulated); sims != 0 {
		t.Errorf("budget-exhausted proxy fell back to %d local simulations", sims)
	}
}

// TestDrainingOwnerProxyFallsBackLocal (satellite): a draining owner
// answers the proxied run with its typed 503 draining error; the non-owner
// must degrade to local execution exactly once — no retries (the owner's
// answer is authoritative), no failure charged to the owner (the link
// works), and no leaked goroutines.
func TestDrainingOwnerProxyFallsBackLocal(t *testing.T) {
	nodes := startFleet(t, 2)
	client := &http.Client{}

	owner, other := nodes[1], nodes[0]
	cfg := configOwnedBy(t, other.srv.fleet, owner.url)
	owner.srv.StartDrain()

	// Warm up the non-owner's serving path with a locally-owned config so
	// the goroutine baseline includes the runner's worker pool and the
	// client's keep-alive connection — not artifacts of the fallback.
	warm := configOwnedBy(t, other.srv.fleet, other.url)
	if status, _ := postJSON(t, client, other.url+"/v1/runs", RunRequest{Config: warm}, nil); status != http.StatusOK {
		t.Fatalf("warmup status = %d", status)
	}
	before := runtime.NumGoroutine()

	var got RunResult
	status, _ := postJSON(t, client, other.url+"/v1/runs", RunRequest{Config: cfg}, &got)
	if status != http.StatusOK {
		t.Fatalf("status = %d (%+v), want 200 via local fallback", status, got.Error)
	}
	if got.Run == nil {
		t.Fatal("200 with no run")
	}

	if v := other.reg.Get(CounterProxied); v != 1 {
		t.Errorf("proxied = %d, want 1", v)
	}
	if v := other.reg.Get(CounterProxyErrors); v != 1 {
		t.Errorf("proxy errors (fallbacks) = %d, want exactly 1", v)
	}
	if v := other.reg.Get(CounterRetries); v != 0 {
		t.Errorf("retries = %d, want 0 (a draining answer is authoritative)", v)
	}
	for _, ph := range other.srv.prober.States() {
		if ph.Member == owner.url && (ph.State != cluster.StateUp || ph.ConsecutiveFails != 0) {
			t.Errorf("owner after draining answer = %s with %d consecutive failures, want up with 0 (the link works)",
				ph.State, ph.ConsecutiveFails)
		}
	}
	if v := owner.reg.Get(CounterDrained); v != 1 {
		t.Errorf("owner drained refusals = %d, want 1", v)
	}
	if v := other.reg.Get(runcache.CounterRunsSimulated); v != 2 {
		t.Errorf("non-owner simulated %d runs (warmup + fallback), want 2", v)
	}
	if v := owner.reg.Get(runcache.CounterRunsSimulated); v != 0 {
		t.Errorf("draining owner simulated %d runs, want 0", v)
	}

	// No goroutine leak: drop the proxy hop's keep-alive connection (its
	// read/write loops are pooling, not a leak), then everything the
	// fallback spawned must wind down to the warmed-up baseline.
	other.srv.peers.http.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d after drain fallback", before, after)
	}
}

// TestHealthGatedRoutingSkipsDownOwner: once the failure detector marks a
// peer Down, its keys remap — requests that would have proxied execute
// locally without touching the dead link — and recovery restores proxying.
func TestHealthGatedRoutingSkipsDownOwner(t *testing.T) {
	// A peer that is already dead: bind, record the URL, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln2.Addr().String()
	ln2.Close() // handler invoked directly; no listener needed

	fleet, err := cluster.NewFleet(self, []string{self, deadURL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := stats.NewMetrics()
	r := experiments.NewRunner(experiments.Options{Instructions: 8_000, Metrics: reg, KeepGoing: true})
	defer r.Close()
	srv := New(r, Options{Metrics: reg, Fleet: fleet, ProbeDownAfter: 3})

	cfg := srv.normalize(configOwnedBy(t, fleet, deadURL))

	// Drive the detector synchronously: three failed probes mark it Down.
	for i := 0; i < 3; i++ {
		srv.prober.ProbeOnce(context.Background())
	}
	if got := srv.prober.StateOf(deadURL); got != cluster.StateDown {
		t.Fatalf("dead peer state = %s, want down", got)
	}
	if fleet.Owner(runcache.Key(cfg)) != self {
		t.Fatal("key did not remap to self with owner down")
	}

	run, errRun := srv.runOne(context.Background(), cfg, false)
	if errRun != nil || run == nil {
		t.Fatalf("runOne with down owner: (%v, %v), want local success", run, errRun)
	}
	if v := reg.Get(CounterProxied); v != 0 {
		t.Errorf("proxied = %d, want 0 (down owner must not be dialed)", v)
	}
	if v := reg.Get(runcache.CounterRunsSimulated); v != 1 {
		t.Errorf("local simulations = %d, want 1", v)
	}
	if v := reg.Get(cluster.CounterTransitionsDown); v != 1 {
		t.Errorf("transitions.down = %d, want 1", v)
	}
}

// TestFailedProxyHopsMarkOwnerDown: the failure detector hears about real
// hops, not only probes. A non-owner proxies to an owner that accepts
// connections and drops them; the one request's first two failed attempts
// (ProbeDownAfter 2) mark the owner Down with no probe run, its third
// attempt is not made, the request degrades to local execution, and the
// next request for that key executes here without dialling the owner
// again.
func TestFailedProxyHopsMarkOwnerDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			conn.Close()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	deadURL := "http://" + ln.Addr().String()
	self := "http://127.0.0.1:1" // handler invoked directly; never dialled

	fleet, err := cluster.NewFleet(self, []string{self, deadURL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := stats.NewMetrics()
	r := experiments.NewRunner(experiments.Options{Instructions: 8_000, Metrics: reg, KeepGoing: true})
	defer r.Close()
	srv := New(r, Options{Metrics: reg, Fleet: fleet, ProbeDownAfter: 2, RetryBackoff: 5 * time.Millisecond})
	cfg := srv.normalize(configOwnedBy(t, fleet, deadURL))

	if run, err := srv.runOne(context.Background(), cfg, false); err != nil || run == nil {
		t.Fatalf("first request: (%v, %v), want local fallback success", run, err)
	}
	if got := srv.prober.StateOf(deadURL); got != cluster.StateDown {
		t.Fatalf("owner after one request's failed hops = %s, want down", got)
	}
	if fleet.Owner(runcache.Key(cfg)) != self {
		t.Fatal("key did not remap to self with the owner down")
	}
	if v := reg.Get(CounterProxyErrors); v != 1 {
		t.Errorf("proxy fallbacks = %d, want 1", v)
	}
	if v := reg.Get(cluster.CounterProbeFail); v != 0 {
		t.Errorf("probe failures = %d, want 0 (hop outcomes are not probes)", v)
	}
	proxied, dialled := reg.Get(CounterProxied), dials.Load()
	if proxied != 1 || dialled != 2 || reg.Get(CounterRetries) != 1 {
		t.Fatalf("first request: proxied %d, owner dialled %d times, %d retries; want 1, 2 and 1 (no attempt after Down)",
			proxied, dialled, reg.Get(CounterRetries))
	}

	if run, err := srv.runOne(context.Background(), cfg, false); err != nil || run == nil {
		t.Fatalf("second request: (%v, %v), want success", run, err)
	}
	if v := reg.Get(CounterProxied); v != proxied {
		t.Errorf("proxied %d -> %d: the request for a Down owner's key was proxied", proxied, v)
	}
	if v := dials.Load(); v != dialled {
		t.Errorf("owner dialled %d -> %d times: a Down owner must not be dialled", dialled, v)
	}
}

// TestHopOutcomeRules pins how one peer hop reports to the failure
// detector: any HTTP answer is a success (even a 503, which heals a
// Suspect peer), a transport failure counts against the peer, and a
// transport failure after the caller's own context ended counts as nothing.
func TestHopOutcomeRules(t *testing.T) {
	answering := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, ErrDraining)
	}))
	defer answering.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()
	self := "http://127.0.0.1:1" // never dialled

	fleet, err := cluster.NewFleet(self, []string{self, answering.URL, deadURL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(experiments.Options{Instructions: 8_000, KeepGoing: true})
	defer r.Close()
	srv := New(r, Options{Metrics: r.Metrics(), Fleet: fleet})
	hop := func(ctx context.Context, peer string) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := srv.peers.send(ctx, req, peer, ""); err == nil {
			resp.Body.Close()
		}
	}
	health := func(peer string) (cluster.State, int) {
		t.Helper()
		for _, ph := range srv.prober.States() {
			if ph.Member == peer {
				return ph.State, ph.ConsecutiveFails
			}
		}
		t.Fatalf("no health row for %s", peer)
		return 0, 0
	}

	srv.prober.Observe(answering.URL, errors.New("an earlier failure"))
	hop(context.Background(), answering.URL)
	if st, n := health(answering.URL); st != cluster.StateUp || n != 0 {
		t.Errorf("after a 503 answer: %s with %d failures, want up with 0", st, n)
	}

	hop(context.Background(), deadURL)
	if st, n := health(deadURL); st != cluster.StateSuspect || n != 1 {
		t.Errorf("after a refused connection: %s with %d failures, want suspect with 1", st, n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hop(ctx, deadURL)
	if st, n := health(deadURL); st != cluster.StateSuspect || n != 1 {
		t.Errorf("after a failure past the caller's context: %s with %d failures, want unchanged (suspect, 1)", st, n)
	}
}

// TestClusterEndpoint: /v1/cluster reports per-member health and liveness
// on a fleet member, and 404s on a standalone server.
func TestClusterEndpoint(t *testing.T) {
	nodes := startFleet(t, 3)
	resp, err := http.Get(nodes[0].url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var cr ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Self != nodes[0].url || cr.FleetSize != 3 || cr.LiveMembers != 3 {
		t.Errorf("self=%q fleet=%d live=%d, want %q/3/3", cr.Self, cr.FleetSize, cr.LiveMembers, nodes[0].url)
	}
	if len(cr.Members) != 3 {
		t.Fatalf("members = %d rows, want 3", len(cr.Members))
	}
	selfRows := 0
	for _, m := range cr.Members {
		if m.Self {
			selfRows++
			if m.URL != nodes[0].url || m.State != "up" || !m.Live {
				t.Errorf("self row = %+v", m)
			}
			continue
		}
		if m.State != "up" || !m.Live || m.ConsecutiveFails != 0 {
			t.Errorf("peer row = %+v, want up/live with no failures", m)
		}
	}
	if selfRows != 1 {
		t.Errorf("self rows = %d, want 1", selfRows)
	}

	// Standalone: no fleet, no cluster.
	r := experiments.NewRunner(experiments.Options{Instructions: 8_000, KeepGoing: true})
	defer r.Close()
	standalone := httptest.NewServer(New(r, Options{Metrics: r.Metrics()}).Handler())
	defer standalone.Close()
	resp2, err := http.Get(standalone.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("standalone /v1/cluster = %d, want 404", resp2.StatusCode)
	}
}

// TestBackoffDeterministicAndBounded: same (key, attempt) → same backoff;
// each value lies in [base/2 * 2^(n-1), base * 2^(n-1)] capped at max.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	rp := retryPolicy{attempts: 5, base: 40 * time.Millisecond, max: 200 * time.Millisecond}.norm()
	for attempt := 1; attempt <= 4; attempt++ {
		d1 := rp.backoff("key-a", attempt)
		d2 := rp.backoff("key-a", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		full := rp.base << (attempt - 1)
		if full > rp.max {
			full = rp.max
		}
		if d1 < full/2 || d1 >= full {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d1, full/2, full)
		}
	}
	if rp.backoff("key-a", 1) == rp.backoff("key-b", 1) {
		t.Error("different keys produced identical jitter (suspicious)")
	}
}

// TestSleepBudget: a deadline too tight for the requested sleep returns
// errBudget immediately instead of sleeping into a timeout.
func TestSleepBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := sleepBudget(ctx, 100*time.Millisecond); err != errBudget {
		t.Fatalf("err = %v, want errBudget", err)
	}
	if e := time.Since(start); e > 10*time.Millisecond {
		t.Errorf("budget refusal took %v, want immediate", e)
	}
	// With room to spare the sleep proceeds.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := sleepBudget(ctx2, 5*time.Millisecond); err != nil {
		t.Fatalf("sleep within budget failed: %v", err)
	}
}
