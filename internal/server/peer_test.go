package server

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracestore"
)

// fleetNode is one in-process fleet member: a real runner (own metrics
// registry, own disk cache, own trace store) behind a real HTTP listener.
type fleetNode struct {
	url    string
	srv    *Server
	runner *experiments.Runner
	reg    *stats.Metrics
	store  *tracestore.Store
}

// startFleet boots n fleet members on loopback. Listeners are bound first so
// every member can be configured with the complete URL list — the same
// chicken-and-egg ordering a deployment script uses.
func startFleet(t testing.TB, n int) []*fleetNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		fleet, err := cluster.NewFleet(urls[i], urls, 0)
		if err != nil {
			t.Fatal(err)
		}
		reg := stats.NewMetrics()
		runner := experiments.NewRunner(experiments.Options{
			Instructions: 8_000,
			CacheDir:     t.TempDir(),
			Metrics:      reg,
			KeepGoing:    true,
		})
		store := tracestore.New(t.TempDir(), tracestore.Options{})
		srv := New(runner, Options{Metrics: reg, Fleet: fleet, TraceStore: store})
		runner.SetPeerFetch(srv.PeerFetch)
		runner.SetTraceResolver(srv.TraceFetch)
		hs := httptest.NewUnstartedServer(srv.Handler())
		hs.Listener.Close()
		hs.Listener = lns[i]
		hs.Start()
		nodes[i] = &fleetNode{url: urls[i], srv: srv, runner: runner, reg: reg, store: store}
		t.Cleanup(hs.Close)
		t.Cleanup(runner.Close)
	}
	return nodes
}

// sumCounter is the fleet-wide (cluster aggregate) value of one counter.
func sumCounter(nodes []*fleetNode, name string) uint64 {
	var total uint64
	for _, n := range nodes {
		total += n.reg.Get(name)
	}
	return total
}

// TestFleetByteIdenticalAnyNode is the fleet's golden correctness property:
// the same config posted to every member returns byte-identical result rows
// no matter which node received it, and the fleet executes the simulation
// exactly once cluster-wide — the duplicates resolve by proxying to the ring
// owner and by the caches, never by re-simulating.
func TestFleetByteIdenticalAnyNode(t *testing.T) {
	nodes := startFleet(t, 3)
	client := &http.Client{}

	cfgs := []sim.Config{
		{App: "511.povray", Predictor: "phast", Instructions: 8_000},
		{App: "519.lbm", Predictor: "phast", Instructions: 8_000, Seed: 7},
	}
	for _, cfg := range cfgs {
		var rows [][]byte
		for _, n := range nodes {
			var got RunResult
			status, _ := postJSON(t, client, n.url+"/v1/runs", RunRequest{Config: cfg}, &got)
			if status != http.StatusOK {
				t.Fatalf("node %s: status = %d, want 200 (%+v)", n.url, status, got.Error)
			}
			row, err := json.Marshal(got.Run)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
		for i := 1; i < len(rows); i++ {
			if !bytes.Equal(rows[0], rows[i]) {
				t.Errorf("config %+v: node %d row differs from node 0:\nnode0 %s\nnode%d %s",
					cfg, i, rows[0], i, rows[i])
			}
		}
	}

	// 2 unique configs, 3 requests each: exactly 2 simulations cluster-wide.
	if sims := sumCounter(nodes, runcache.CounterRunsSimulated); sims != uint64(len(cfgs)) {
		t.Errorf("fleet executed %d simulations for %d unique configs", sims, len(cfgs))
	}
	// The requests that landed off-owner must have been forwarded, and the
	// owners must have served them.
	if p := sumCounter(nodes, CounterProxied); p == 0 {
		t.Error("no request was proxied to its ring owner")
	}
	if sumCounter(nodes, CounterProxied) != sumCounter(nodes, CounterPeerRuns) {
		t.Errorf("proxied %d != peer runs served %d",
			sumCounter(nodes, CounterProxied), sumCounter(nodes, CounterPeerRuns))
	}
	if e := sumCounter(nodes, CounterProxyErrors); e != 0 {
		t.Errorf("healthy fleet counted %d proxy errors", e)
	}
}

// TestFleetPeerFailureDegradesToLocal injects peer-transport failures
// (faultinject "peerfetch") into a healthy fleet: every proxy and peer cache
// fetch dies before the network. The contract is graceful degradation — each
// node falls back to simulating locally, every request still succeeds with
// byte-identical rows, and the failures are visible in the counters
// (server.proxy.errors, runcache.peer.errors) rather than silent.
func TestFleetPeerFailureDegradesToLocal(t *testing.T) {
	nodes := startFleet(t, 3)
	client := &http.Client{}

	plan, err := faultinject.Parse("peerfetch=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Activate(plan)
	defer restore()

	cfg := sim.Config{App: "511.povray", Predictor: "phast", Instructions: 8_000, Seed: 21}
	var rows [][]byte
	for _, n := range nodes {
		var got RunResult
		status, _ := postJSON(t, client, n.url+"/v1/runs", RunRequest{Config: cfg}, &got)
		if status != http.StatusOK {
			t.Fatalf("node %s under peer faults: status = %d, want 200 (%+v)", n.url, status, got.Error)
		}
		row, err := json.Marshal(got.Run)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	for i := 1; i < len(rows); i++ {
		if !bytes.Equal(rows[0], rows[i]) {
			t.Errorf("node %d row differs from node 0 under peer faults:\nnode0 %s\nnode%d %s",
				i, rows[0], i, rows[i])
		}
	}

	// With the fleet's internal links down, dedup is sacrificed for
	// availability: the two non-owner nodes execute locally instead of
	// proxying, and their fallbacks are counted.
	if e := sumCounter(nodes, CounterProxyErrors); e != 2 {
		t.Errorf("proxy errors = %d, want 2 (one per non-owner node)", e)
	}
	if e := sumCounter(nodes, runcache.CounterPeerErrors); e == 0 {
		t.Error("peer fetch failures left runcache.peer.errors at 0")
	}
	if sims := sumCounter(nodes, runcache.CounterRunsSimulated); sims != 3 {
		t.Errorf("fleet executed %d simulations, want 3 (each node local)", sims)
	}
}

// TestPeerCacheKeyValidation: the peer cache-fetch endpoint accepts exactly
// the 64-lowercase-hex shape runcache.Key produces and rejects everything
// else before touching the filesystem — path traversal is impossible by
// construction. Requests are built with httptest.NewRequest so traversal
// payloads reach the handler verbatim instead of being cleaned by the mux.
func TestPeerCacheKeyValidation(t *testing.T) {
	r := experiments.NewRunner(experiments.Options{Instructions: 8_000, KeepGoing: true})
	defer r.Close()
	srv := New(r, Options{Metrics: r.Metrics()})

	valid := strings.Repeat("0123456789abcdef", 4) // 64 hex digits, not cached
	cases := []struct {
		name string
		key  string
		want int
	}{
		{"traversal", "../../../etc/passwd", http.StatusBadRequest},
		{"traversal-hex-prefix", strings.Repeat("ab", 28) + "/../key3", http.StatusBadRequest},
		{"uppercase", strings.ToUpper(valid), http.StatusBadRequest},
		{"too-short", valid[:63], http.StatusBadRequest},
		{"too-long", valid + "0", http.StatusBadRequest},
		{"non-hex", strings.Repeat("g", 64), http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
		{"valid-but-missing", valid, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/v1/peer/cache/", nil)
			req.URL.Path = "/v1/peer/cache/" + tc.key
			w := httptest.NewRecorder()
			srv.handlePeerCache(w, req)
			if w.Code != tc.want {
				t.Errorf("key %q: status = %d, want %d (body %s)", tc.key, w.Code, tc.want, w.Body)
			}
		})
	}

	t.Run("method", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, "/v1/peer/cache/"+valid, nil)
		w := httptest.NewRecorder()
		srv.handlePeerCache(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST: status = %d, want 405", w.Code)
		}
	})
}

// TestPeerCacheServesCachedRun: a run executed through the normal path is
// then retrievable over the peer cache-fetch endpoint, keyed by the
// content-addressed runcache.Key of its normalised config.
func TestPeerCacheServesCachedRun(t *testing.T) {
	r := experiments.NewRunner(experiments.Options{Instructions: 8_000, KeepGoing: true})
	defer r.Close()
	srv := New(r, Options{Metrics: r.Metrics()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := srv.normalize(sim.Config{App: "511.povray", Predictor: "phast"})
	var got RunResult
	status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/runs", RunRequest{Config: cfg}, &got)
	if status != http.StatusOK {
		t.Fatalf("run: status = %d", status)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/peer/cache/" + runcache.Key(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer cache fetch: status = %d, want 200", resp.StatusCode)
	}
	var entry PeerCacheEntry
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	if entry.Key != runcache.Key(cfg) || entry.Run == nil {
		t.Fatalf("bad entry: key %q run %v", entry.Key, entry.Run)
	}
	wantJSON, _ := json.Marshal(got.Run)
	gotJSON, _ := json.Marshal(entry.Run)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("peer cache row differs from the run:\nrun   %s\ncache %s", wantJSON, gotJSON)
	}
}
