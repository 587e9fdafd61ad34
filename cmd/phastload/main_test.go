package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeBackend answers every run instantly (or once gate opens) with a row
// derived from the config alone, and records the stream seeds it was asked
// for, so harness runs are fast and their digests deterministic.
type fakeBackend struct {
	gate  chan struct{} // nil = complete immediately
	mu    sync.Mutex
	seeds map[int64]bool
}

func (f *fakeBackend) RunConfigContext(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	f.mu.Lock()
	if f.seeds == nil {
		f.seeds = map[int64]bool{}
	}
	f.seeds[cfg.Seed] = true
	f.mu.Unlock()
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, &sim.SimError{Kind: sim.KindOf(ctx.Err()), Config: cfg, Err: ctx.Err()}
		}
	}
	return &stats.Run{App: cfg.App, Predictor: cfg.Predictor, Machine: cfg.Machine,
		Cycles: 100 + uint64(cfg.Seed%97), Committed: 250}, nil
}

func (f *fakeBackend) RunConfigsDetailedContext(ctx context.Context, cfgs []sim.Config) []experiments.Result {
	out := make([]experiments.Result, len(cfgs))
	for i, cfg := range cfgs {
		run, err := f.RunConfigContext(ctx, cfg)
		out[i] = experiments.Result{Config: cfg, Run: run, Err: err}
	}
	return out
}

func (f *fakeBackend) distinctSeeds() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.seeds)
}

// newTarget serves a phastd front end over fb on a loopback port.
func newTarget(t *testing.T, fb *fakeBackend, opt server.Options) (string, *stats.Metrics) {
	t.Helper()
	if opt.Metrics == nil {
		opt.Metrics = stats.NewMetrics()
	}
	ts := httptest.NewServer(server.New(fb, opt).Handler())
	t.Cleanup(ts.Close)
	return ts.URL, opt.Metrics
}

// writeScenarios writes a scenario file holding body verbatim.
func writeScenarios(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runLoad runs the harness over scenarios and returns its fleet-aggregate
// CSV rows by scenario name, plus the raw CSV.
func runLoad(t *testing.T, scenarios []Scenario, extra ...string) (map[string]map[string]string, [][]string) {
	t.Helper()
	data, err := json.Marshal(scenarioFile{Scenarios: scenarios})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results.csv")
	var stdout, stderr bytes.Buffer
	args := append([]string{"-scenario", writeScenarios(t, string(data)), "-out", out}, extra...)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[string]string{}
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, col := range recs[0] {
			row[col] = rec[i]
		}
		if row["target"] == "all" {
			rows[row["scenario"]] = row
		}
	}
	return rows, recs
}

// expect checks columns of one CSV row.
func expect(t *testing.T, row map[string]string, want map[string]string) {
	t.Helper()
	for col, v := range want {
		if row[col] != v {
			t.Errorf("%s %s = %q, want %q", row["scenario"], col, row[col], v)
		}
	}
}

func baseConfig() sim.Config {
	return sim.Config{App: "511.povray", Predictor: "none", Instructions: 5000}
}

func TestRunRequiresScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(nil, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-scenario") {
		t.Errorf("run without -scenario = %v, want an error naming -scenario", err)
	}
}

// TestScenarioFileRejected: every norm() rejection, and the file-level
// ones, fail the run before any load is sent.
func TestScenarioFileRejected(t *testing.T) {
	const tg = `"targets": ["http://127.0.0.1:1"]`
	for _, tc := range []struct {
		name, body, want string
	}{
		{"no targets", `{"scenarios": [{"name": "x"}]}`, "has no targets"},
		{"mode", `{"scenarios": [{` + tg + `, "mode": "bursty"}]}`, `unknown mode "bursty"`},
		{"dup", `{"scenarios": [{` + tg + `, "dup": 1.5}]}`, "dup 1.5 out of [0,1]"},
		{"zipf_s", `{"scenarios": [{` + tg + `, "zipf_s": 0.5}]}`, "zipf_s must be > 1"},
		{"burst", `{"scenarios": [{` + tg + `, "burst": {"period_ms": 100, "width_ms": 200, "factor": 2}}]}`, "bad burst"},
		{"think_ms", `{"scenarios": [{` + tg + `, "think_ms": -1}]}`, "negative think_ms"},
		{"chaos exec", `{"scenarios": [{` + tg + `, "chaos": [{"at_ms": 1}]}]}`, "chaos[0] has no exec"},
		{"chaos trigger", `{"scenarios": [{` + tg + `, "chaos": [{"at_ms": -1, "exec": "true"}]}]}`, "chaos[0] has a negative trigger"},
		{"upload target", `{"scenarios": [{` + tg + `, "upload": {"target": 1}}]}`, "upload target 1 out of range"},
		{"job spec", `{"scenarios": [{` + tg + `, "job": {}}]}`, "job phase has no spec"},
		{"job target", `{"scenarios": [{` + tg + `, "job": {"spec": {}, "target": -1}}]}`, "job target -1 out of range"},
		{"@upload without upload", `{"scenarios": [{` + tg + `, "config": {"App": "trace:@upload"}}]}`, "references @upload"},
		{"unknown field", `{"scenarios": [{` + tg + `, "concurency": 4}]}`, `unknown field "concurency"`},
		{"empty list", `{"scenarios": []}`, "no scenarios"},
		{"bare object", `{` + tg + `}`, `unknown field "targets"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run([]string{"-scenario", writeScenarios(t, tc.body)}, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run = %v, want an error containing %q", err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("a rejected file still printed %q", stdout.String())
			}
		})
	}
}

// TestClosedLoopRun: a closed-loop scenario sends exactly its planned
// requests, reports as unique the distinct configs the server saw, and
// writes the CSV header recorded below (the column contract scripts read).
func TestClosedLoopRun(t *testing.T) {
	fb := &fakeBackend{}
	url, _ := newTarget(t, fb, server.Options{MaxInflight: 8})
	rows, recs := runLoad(t, []Scenario{{
		Name: "closed", Targets: []string{url}, Concurrency: 4, Requests: 40,
		Dup: 0.5, Pool: 4, Config: baseConfig(), Seed: 5,
	}})
	row := rows["closed"]
	expect(t, row, map[string]string{"mode": "closed", "targets": "1", "requests": "40", "ok": "40",
		"rejected": "0", "failed": "0", "server_requests": "40"})
	if got, want := row["unique"], strconv.Itoa(fb.distinctSeeds()); got != want {
		t.Errorf("unique = %s, want %s (distinct seeds the server saw)", got, want)
	}
	if row["unique"] == "40" || row["unique"] == "0" {
		t.Errorf("unique = %s: a dup 0.5 mix over a pool of 4 should repeat some configs", row["unique"])
	}
	header := strings.Split("scenario,target,targets,mode,tenant,requests,unique,ok,rejected,failed,"+
		"mismatched,failovers,elapsed_s,rps,p50_ms,p90_ms,p99_ms,max_ms,job_state,job_trials,"+
		"server_requests,server_accepted,server_queued,server_rejected,server_coalesced,server_proxied,"+
		"server_proxy_errors,server_peer_runs,server_retry_attempts,server_breaker_opened,"+
		"server_breaker_shortcircuit,server_hedge_fired,server_hedge_wins,cluster_probe_fail,"+
		"cluster_transitions_down,cluster_transitions_up,runcache_peer_hits,runcache_peer_misses,"+
		"runcache_peer_errors,runcache_peer_served,server_trace_uploads,server_trace_fetched,"+
		"server_peer_trace_served,server_trace_replicated,cache_hits_mem,cache_hits_disk,cache_misses,"+
		"runs_simulated,runcache_disk_evicted", ",")
	if !reflect.DeepEqual(recs[0], header) {
		t.Errorf("CSV header changed:\n got  %v\n want %v", recs[0], header)
	}
}

// deadForRuns is a member that answers health and metrics but drops every
// run request's connection — a node that died between snapshots.
func deadForRuns(t *testing.T) string {
	t.Helper()
	metrics := server.New(&fakeBackend{}, server.Options{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/runs" {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		metrics.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestFailoverRidesOutDeadTarget: with one dead and one live target, the
// requests first sent to the dead one are retried on the live one.
func TestFailoverRidesOutDeadTarget(t *testing.T) {
	live, _ := newTarget(t, &fakeBackend{}, server.Options{MaxInflight: 8})
	rows, recs := runLoad(t, []Scenario{{
		Name: "failover", Targets: []string{deadForRuns(t), live}, Concurrency: 2, Requests: 10,
		Failover: true, Config: baseConfig(),
	}})
	row := rows["failover"]
	expect(t, row, map[string]string{"requests": "10", "ok": "10", "failed": "0"})
	if row["failovers"] == "0" {
		t.Error("no request failed over to the live target")
	}
	if got := len(recs) - 1; got != 3 {
		t.Errorf("%d CSV rows, want 3 (all + one per target)", got)
	}
}

// TestServerRejectionCountsAsRejected: a 429 from a saturated server is a
// rejection, not a failure.
func TestServerRejectionCountsAsRejected(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	url, m := newTarget(t, fb, server.Options{MaxInflight: 1, QueueDepth: -1})
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for m.Get(server.CounterRejected) < 5 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(fb.gate)
	}()
	rows, _ := runLoad(t, []Scenario{{
		Name: "saturated", Targets: []string{url}, Concurrency: 6, Requests: 6,
		Config: baseConfig(),
	}})
	expect(t, rows["saturated"], map[string]string{"requests": "6", "ok": "1", "rejected": "5", "failed": "0"})
}

// TestOpenLoopBurstCompletes: the open-loop arrival process with a burst
// sends its planned requests and finishes.
func TestOpenLoopBurstCompletes(t *testing.T) {
	url, _ := newTarget(t, &fakeBackend{}, server.Options{MaxInflight: 8})
	rows, _ := runLoad(t, []Scenario{{
		Name: "open", Targets: []string{url}, Mode: "open", QPS: 400, Requests: 20,
		Burst: &Burst{PeriodMS: 40, WidthMS: 10, Factor: 4}, Config: baseConfig(),
	}})
	expect(t, rows["open"], map[string]string{"mode": "open", "requests": "20", "ok": "20", "failed": "0"})
}

// TestDigestsMatchAcrossTargets: the same mix served by two different
// targets writes identical per-seed digest rows.
func TestDigestsMatchAcrossTargets(t *testing.T) {
	a, _ := newTarget(t, &fakeBackend{}, server.Options{MaxInflight: 8})
	b, _ := newTarget(t, &fakeBackend{}, server.Options{MaxInflight: 8})
	mix := func(name, target string) Scenario {
		return Scenario{Name: name, Targets: []string{target}, Concurrency: 3, Requests: 30,
			Dup: 0.6, Pool: 5, ZipfS: 1.3, Config: baseConfig(), Seed: 9}
	}
	digests := filepath.Join(t.TempDir(), "digests.csv")
	rows, _ := runLoad(t, []Scenario{mix("a", a), mix("b", b)}, "-digests", digests)
	expect(t, rows["a"], map[string]string{"mismatched": "0", "ok": "30"})
	expect(t, rows["b"], map[string]string{"mismatched": "0", "ok": "30"})

	data, err := os.ReadFile(digests)
	if err != nil {
		t.Fatal(err)
	}
	per := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, rest, _ := strings.Cut(line, ",")
		per[name] = append(per[name], rest)
	}
	if len(per["a"]) == 0 || !reflect.DeepEqual(per["a"], per["b"]) {
		t.Errorf("digest rows differ across targets:\n a %v\n b %v", per["a"], per["b"])
	}
}
