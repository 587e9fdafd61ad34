package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeBackend is a controllable Backend: runs block on gate (when set) and
// honour context cancellation, so admission/coalescing/drain tests are
// deterministic instead of racing a real simulator.
type fakeBackend struct {
	gate  chan struct{} // nil = complete immediately
	calls atomic.Int32
}

func (f *fakeBackend) RunConfigContext(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	f.calls.Add(1)
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, &sim.SimError{Kind: sim.KindOf(ctx.Err()), Config: cfg, Err: ctx.Err()}
		}
	}
	return &stats.Run{App: cfg.App, Predictor: cfg.Predictor, Machine: cfg.Machine, Cycles: 100, Committed: 250}, nil
}

func (f *fakeBackend) RunConfigsDetailedContext(ctx context.Context, cfgs []sim.Config) []experiments.Result {
	out := make([]experiments.Result, len(cfgs))
	for i, cfg := range cfgs {
		run, err := f.RunConfigContext(ctx, cfg)
		out[i] = experiments.Result{Config: cfg, Run: run, Err: err}
	}
	return out
}

// postJSON posts v and decodes the response body into out, returning the
// status code.
func postJSON(t *testing.T, client *http.Client, url string, v any, out any) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("status %d: bad response body %q: %v", resp.StatusCode, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// TestServerRunMatchesInProcess is the golden equivalence test: a run
// requested over HTTP returns byte-identical result rows to the same config
// executed in-process.
func TestServerRunMatchesInProcess(t *testing.T) {
	cfg := sim.Config{App: "511.povray", Predictor: "none", Instructions: 10_000}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	r := experiments.NewRunner(experiments.Options{Instructions: 10_000, KeepGoing: true})
	defer r.Close()
	ts := httptest.NewServer(New(r, Options{Metrics: r.Metrics()}).Handler())
	defer ts.Close()

	var got RunResult
	status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/runs", RunRequest{Config: cfg}, &got)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%+v)", status, got)
	}
	if got.Run == nil {
		t.Fatal("response carries no run")
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got.Run)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("server row differs from in-process run:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
	if got.Config.Machine != "alderlake" || got.Config.Predictor != "none" {
		t.Errorf("response config not normalised: %+v", got.Config)
	}
}

// TestServerBatch: per-row outcomes in request order, including typed
// error rows for bad configs, with the good rows matching in-process runs.
// The bad configs alone on /v1/runs are 400 config errors.
func TestServerBatch(t *testing.T) {
	r := experiments.NewRunner(experiments.Options{Instructions: 10_000, KeepGoing: true})
	defer r.Close()
	ts := httptest.NewServer(New(r, Options{Metrics: r.Metrics()}).Handler())
	defer ts.Close()

	req := BatchRequest{Configs: []sim.Config{
		{App: "511.povray", Predictor: "none", Instructions: 10_000},
		{App: "511.povray", Predictor: "warp-drive", Instructions: 10_000},
		{App: "519.lbm", Predictor: "none", Instructions: 10_000},
		{App: "511.povray", Predictor: "storesets:3", Instructions: 10_000},
	}}
	var resp BatchResponse
	status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", req, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(resp.Results) != len(req.Configs) {
		t.Fatalf("got %d rows, want %d", len(resp.Results), len(req.Configs))
	}
	if resp.Results[0].Run == nil || resp.Results[2].Run == nil {
		t.Error("good configs must carry runs")
	}
	for _, i := range []int{1, 3} {
		if resp.Results[i].Error == nil || resp.Results[i].Error.Kind != string(sim.ErrConfig) {
			t.Errorf("bad config row = %+v, want a %q error", resp.Results[i], sim.ErrConfig)
		}
		var er errorResponse
		status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/runs", RunRequest{Config: req.Configs[i]}, &er)
		if status != http.StatusBadRequest || er.Error.Kind != string(sim.ErrConfig) {
			t.Errorf("POST /v1/runs %s = %d/%q, want 400/%q", req.Configs[i].Predictor, status, er.Error.Kind, sim.ErrConfig)
		}
	}
	want, err := sim.Run(req.Configs[0])
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(resp.Results[0].Run)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("batch row 0 differs from in-process run:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

// TestServerRejectsWhenSaturated: with the running set and queue full,
// further requests bounce with 429 + Retry-After (never hang, never drop),
// and the queued request completes once a slot frees.
func TestServerRejectsWhenSaturated(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	m := stats.NewMetrics()
	ts := httptest.NewServer(New(fb, Options{MaxInflight: 1, QueueDepth: 1, Metrics: m}).Handler())
	defer ts.Close()

	cfgN := func(n int) sim.Config {
		return sim.Config{App: "511.povray", Predictor: "none", Instructions: 10_000, Seed: int64(n)}
	}
	type outcome struct {
		status int
		body   RunResult
	}
	results := make(chan outcome, 2)
	for i := 1; i <= 2; i++ {
		i := i
		go func() {
			var out RunResult
			status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/runs", RunRequest{Config: cfgN(i)}, &out)
			results <- outcome{status, out}
		}()
	}
	// Wait until one request holds the slot and one sits in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for (m.Get(CounterAccepted) < 1 || m.Get(CounterQueued) < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.Get(CounterAccepted) < 1 || m.Get(CounterQueued) < 1 {
		t.Fatalf("saturation never reached: accepted=%d queued=%d", m.Get(CounterAccepted), m.Get(CounterQueued))
	}

	var rej errorResponse
	status, hdr := postJSON(t, ts.Client(), ts.URL+"/v1/runs", RunRequest{Config: cfgN(3)}, &rej)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429 (%+v)", status, rej)
	}
	if rej.Error.Kind != KindRejected {
		t.Errorf("kind = %q, want %q", rej.Error.Kind, KindRejected)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	if m.Get(CounterRejected) != 1 {
		t.Errorf("%s = %d, want 1", CounterRejected, m.Get(CounterRejected))
	}

	close(fb.gate)
	for i := 0; i < 2; i++ {
		out := <-results
		if out.status != http.StatusOK || out.body.Run == nil {
			t.Errorf("admitted request finished %d (%+v), want 200 with a run", out.status, out.body)
		}
	}
}

// TestServerCoalescesDuplicates: concurrent identical configs execute once —
// the duplicate piggybacks on the in-flight run, bumping server.coalesced,
// and both clients get the same row.
func TestServerCoalescesDuplicates(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	m := stats.NewMetrics()
	ts := httptest.NewServer(New(fb, Options{MaxInflight: 4, Metrics: m}).Handler())
	defer ts.Close()

	cfg := sim.Config{App: "519.lbm", Predictor: "none", Instructions: 10_000}
	const dups = 3
	var wg sync.WaitGroup
	statuses := make([]int, dups)
	rows := make([]RunResult, dups)
	for i := 0; i < dups; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts.Client(), ts.URL+"/v1/runs", RunRequest{Config: cfg}, &rows[i])
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Get(CounterCoalesced) < dups-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(fb.gate)
	wg.Wait()

	if got := fb.calls.Load(); got != 1 {
		t.Errorf("backend executed %d times for %d identical requests, want 1", got, dups)
	}
	if got := m.Get(CounterCoalesced); got != dups-1 {
		t.Errorf("%s = %d, want %d", CounterCoalesced, got, dups-1)
	}
	want, _ := json.Marshal(rows[0].Run)
	for i := 0; i < dups; i++ {
		if statuses[i] != http.StatusOK {
			t.Errorf("request %d: status %d", i, statuses[i])
		}
		got, _ := json.Marshal(rows[i].Run)
		if !bytes.Equal(want, got) {
			t.Errorf("request %d got a different row", i)
		}
	}
	// Only the flight leader consumed an admission slot.
	if got := m.Get(CounterAccepted); got != 1 {
		t.Errorf("%s = %d, want 1 (duplicates must not consume slots)", CounterAccepted, got)
	}
}

// panickingBackend panics past any recovery once gate opens — a backend
// defect the server's coalescing must contain.
type panickingBackend struct {
	fakeBackend
	entered chan struct{}
}

func (p *panickingBackend) RunConfigContext(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	close(p.entered)
	<-p.gate
	panic("backend defect")
}

// TestServerCoalescedWaitersSurviveLeaderPanic: requests coalesced onto a
// flight whose backend call panics get a typed 500 "internal" error instead
// of hanging; the panic itself stays on the leader's connection.
func TestServerCoalescedWaitersSurviveLeaderPanic(t *testing.T) {
	pb := &panickingBackend{fakeBackend: fakeBackend{gate: make(chan struct{})}, entered: make(chan struct{})}
	m := stats.NewMetrics()
	ts := httptest.NewUnstartedServer(New(pb, Options{MaxInflight: 4, Metrics: m}).Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // net/http logs the contained panic
	ts.Start()
	defer ts.Close()

	req := RunRequest{Config: sim.Config{App: "519.lbm", Predictor: "none", Instructions: 10_000}}
	body, _ := json.Marshal(req)
	leaderDone := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	<-pb.entered

	const waiters = 2
	var wg sync.WaitGroup
	statuses := make([]int, waiters)
	bodies := make([]errorResponse, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts.Client(), ts.URL+"/v1/runs", req, &bodies[i])
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Get(CounterCoalesced) < waiters && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(pb.gate)
	wg.Wait()
	if err := <-leaderDone; err == nil {
		t.Error("the panicking leader's request completed normally")
	}
	for i := 0; i < waiters; i++ {
		if statuses[i] != http.StatusInternalServerError || bodies[i].Error.Kind != string(sim.ErrInternal) {
			t.Errorf("waiter %d: status %d kind %q, want 500 %q", i, statuses[i], bodies[i].Error.Kind, sim.ErrInternal)
		}
	}
}

// TestServerOverloadNeverDropsRequests is the acceptance-shaped saturation
// test: clients at well over the configured concurrency all receive a
// response — some 200 after queueing, some 429 — with zero hangs and
// nonzero backpressure signal (rejections or queue waits).
func TestServerOverloadNeverDropsRequests(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	m := stats.NewMetrics()
	const maxInflight, queueDepth = 2, 2
	ts := httptest.NewServer(New(fb, Options{MaxInflight: maxInflight, QueueDepth: queueDepth, Metrics: m}).Handler())
	defer ts.Close()

	// 4× the configured concurrency, all distinct configs.
	const clients = 4 * maxInflight
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := sim.Config{App: "511.povray", Predictor: "none", Instructions: 10_000, Seed: int64(i + 1)}
			statuses[i], _ = postJSON(t, ts.Client(), ts.URL+"/v1/runs", RunRequest{Config: cfg}, nil)
		}()
	}
	// Let the running set and queue fill, then release the backend so the
	// admitted requests drain while the overflow has already bounced.
	deadline := time.Now().Add(5 * time.Second)
	for m.Get(CounterRejected) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(fb.gate)
	wg.Wait()

	var ok, rejected int
	for i, status := range statuses {
		switch status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("request %d: unexpected status %d", i, status)
		}
	}
	if ok+rejected != clients {
		t.Errorf("%d responses for %d requests — requests were dropped", ok+rejected, clients)
	}
	if rejected == 0 && m.Get(CounterQueued) == 0 {
		t.Error("overload produced neither rejections nor queue waits")
	}
	if ok < maxInflight {
		t.Errorf("only %d requests succeeded, want at least the running set (%d)", ok, maxInflight)
	}
	t.Logf("overload: %d ok, %d rejected, queued=%d", ok, rejected, m.Get(CounterQueued))
}

// TestServerDeadlinePropagates: a request deadline reaches the backend's
// context and the expiry maps to HTTP 504 with a timeout-kind error body.
func TestServerDeadlinePropagates(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})} // never released
	ts := httptest.NewServer(New(fb, Options{MaxInflight: 2}).Handler())
	defer ts.Close()

	var rej errorResponse
	req := RunRequest{
		Config:    sim.Config{App: "511.povray", Predictor: "none", Instructions: 10_000},
		TimeoutMS: 50,
	}
	status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/runs", req, &rej)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%+v)", status, rej)
	}
	if rej.Error.Kind != string(sim.ErrTimeout) {
		t.Errorf("kind = %q, want %q", rej.Error.Kind, sim.ErrTimeout)
	}
}

// TestServerDrain: StartDrain flips /healthz to 503 and refuses new work
// while an in-flight request runs to completion.
func TestServerDrain(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	m := stats.NewMetrics()
	srv := New(fb, Options{MaxInflight: 2, Metrics: m})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inflight := make(chan outcomePair, 1)
	go func() {
		var out RunResult
		status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/runs",
			RunRequest{Config: sim.Config{App: "511.povray", Predictor: "none", Instructions: 10_000}}, &out)
		inflight <- outcomePair{status, out.Run != nil}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.Get(CounterAccepted) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	srv.StartDrain()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", resp.StatusCode)
	}

	var rej errorResponse
	status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/runs",
		RunRequest{Config: sim.Config{App: "519.lbm", Predictor: "none", Instructions: 10_000}}, &rej)
	if status != http.StatusServiceUnavailable || rej.Error.Kind != KindDraining {
		t.Errorf("draining submit = %d/%q, want 503/%q", status, rej.Error.Kind, KindDraining)
	}

	// The in-flight request survives the drain and completes.
	close(fb.gate)
	out := <-inflight
	if out.status != http.StatusOK || !out.hasRun {
		t.Errorf("in-flight request during drain finished %d (run=%t), want 200 with a run", out.status, out.hasRun)
	}
}

type outcomePair struct {
	status int
	hasRun bool
}

// TestServerAbortCancelsInflight: Abort hard-stops in-flight runs; the
// client gets a typed cancellation, not a hang.
func TestServerAbortCancelsInflight(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})} // never released
	m := stats.NewMetrics()
	srv := New(fb, Options{MaxInflight: 2, Metrics: m})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/runs",
			RunRequest{Config: sim.Config{App: "511.povray", Predictor: "none", Instructions: 10_000}}, &errorResponse{})
		done <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.Get(CounterAccepted) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	srv.Abort()
	select {
	case status := <-done:
		if status != http.StatusServiceUnavailable {
			t.Errorf("aborted request status = %d, want 503", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted request never returned")
	}
}

// TestServerMetricsEndpoint: both renderings expose the server counters and
// the latency histogram.
func TestServerMetricsEndpoint(t *testing.T) {
	fb := &fakeBackend{}
	m := stats.NewMetrics()
	ts := httptest.NewServer(New(fb, Options{MaxInflight: 2, Metrics: m}).Handler())
	defer ts.Close()

	if status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/runs",
		RunRequest{Config: sim.Config{App: "511.povray", Predictor: "none", Instructions: 10_000}}, nil); status != http.StatusOK {
		t.Fatalf("seed run failed: %d", status)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{CounterRequests, CounterAccepted, CounterRejected, HistLatency} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text /metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mr.Counters[CounterRequests] != 1 || mr.Counters[CounterAccepted] != 1 {
		t.Errorf("json counters = %v, want requests/accepted = 1", mr.Counters)
	}
	if h, ok := mr.Histograms[HistLatency]; !ok || h.Count != 1 {
		t.Errorf("json histograms = %v, want %s with one observation", mr.Histograms, HistLatency)
	}
}

// TestServerBadRequests: malformed JSON, unknown fields, empty and oversized
// batches all map to 400 with a bad_request body — never a 500.
func TestServerBadRequests(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Options{MaxInflight: 2, MaxBatch: 2}).Handler())
	defer ts.Close()

	post := func(path, body string) (int, errorResponse) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er
	}

	for _, tc := range []struct{ path, body string }{
		{"/v1/runs", "{not json"},
		{"/v1/runs", `{"config": {"App": "x"}, "bogus_field": 1}`},
		{"/v1/batch", `{"configs": []}`},
		{"/v1/batch", fmt.Sprintf(`{"configs": [%s]}`, strings.Repeat(`{"App":"x"},`, 2)+`{"App":"x"}`)},
	} {
		status, er := post(tc.path, tc.body)
		if status != http.StatusBadRequest || er.Error.Kind != KindBadRequest {
			t.Errorf("POST %s %q = %d/%q, want 400/%q", tc.path, tc.body, status, er.Error.Kind, KindBadRequest)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/runs = %d, want 405", resp.StatusCode)
	}
}
