package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracestore"
)

// gatedJobsBackend is the jobs.Backend double for the HTTP tests: batches
// block while gate is set (and honour cancellation), complete immediately
// otherwise. Kept separate from the serving fakeBackend so a test can gate
// job batches without gating /v1/runs.
type gatedJobsBackend struct {
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{} // signalled once per batch start
}

func (b *gatedJobsBackend) setGate(gate chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gate = gate
}

func (b *gatedJobsBackend) RunConfigsDetailedContext(ctx context.Context, cfgs []sim.Config) []experiments.Result {
	b.mu.Lock()
	gate, entered := b.gate, b.entered
	b.mu.Unlock()
	if entered != nil {
		select {
		case entered <- struct{}{}:
		default:
		}
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	out := make([]experiments.Result, len(cfgs))
	for i, cfg := range cfgs {
		out[i].Config = cfg.Normalized()
		if ctx.Err() != nil {
			out[i].Err = &sim.SimError{Kind: sim.ErrCancelled, Config: cfg, Err: ctx.Err()}
			continue
		}
		out[i].Run = &stats.Run{App: cfg.App, Committed: 250, Cycles: 100}
	}
	return out
}

// newJobsServer wires a fresh controller (over jb) into a test server whose
// serving backend is sb, sharing one metrics registry.
func newJobsServer(t *testing.T, sb Backend, jb jobs.Backend, maxActive int) (*httptest.Server, *jobs.Controller, *stats.Metrics) {
	t.Helper()
	m := stats.NewMetrics()
	ctl, err := jobs.NewController(jobs.Options{
		Dir:             t.TempDir(),
		Backend:         jb,
		Metrics:         m,
		Apps:            []string{"511.povray"},
		Instructions:    8000,
		TenantMaxActive: maxActive,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)
	ts := httptest.NewServer(New(sb, Options{
		Metrics: m,
		Jobs:    ctl,
		Results: tracestore.NewResultLog(t.TempDir()),
	}).Handler())
	t.Cleanup(ts.Close)
	return ts, ctl, m
}

// postSpec submits raw spec JSON under tenant and decodes whatever comes
// back into out (a *jobs.Status on 200, an *errorResponse otherwise).
func postSpec(t *testing.T, ts *httptest.Server, tenant, spec string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("status %d: bad response body: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string, out any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("status %d: bad response body: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func deleteJob(t *testing.T, ts *httptest.Server, id string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("status %d: bad response body: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// pollJobDone polls GET /v1/jobs/{id} until the job leaves StateRunning.
func pollJobDone(t *testing.T, ts *httptest.Server, id string) *jobs.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st jobs.Status
		if status := getJob(t, ts, id, &st); status != http.StatusOK {
			t.Fatalf("GET job status = %d", status)
		}
		if st.State != jobs.StateRunning {
			return &st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return nil
}

const lifecycleSpec = `{
	"space": {"predictors": ["phast-tables:1", "phast-tables:2", "phast-tables:4", "phast-tables:8"]},
	"strategy": "halving",
	"halving": {"eta": 2, "rungs": 2}
}`

// TestJobsLifecycleHTTP drives the whole surface: submit, poll to the
// winner, resubmit idempotently, list, cancel-as-no-op, and the 404/400
// edges.
func TestJobsLifecycleHTTP(t *testing.T) {
	ts, _, m := newJobsServer(t, &fakeBackend{}, &gatedJobsBackend{}, 0)

	var st jobs.Status
	if status := postSpec(t, ts, "acme", lifecycleSpec, &st); status != http.StatusOK {
		t.Fatalf("POST status = %d (%+v)", status, st)
	}
	if st.ID == "" || st.Tenant != "acme" || st.PlannedTrials != 6 {
		t.Fatalf("submitted status = %+v", st)
	}
	done := pollJobDone(t, ts, st.ID)
	if done.State != jobs.StateDone || done.Winner == nil || done.Winner.Table == "" {
		t.Fatalf("finished job = %+v", done)
	}
	if done.ResultDigest == "" {
		t.Fatal("finished job carries no result digest")
	}

	// Same tenant, same spec: the same job answers — instantly done.
	var again jobs.Status
	if status := postSpec(t, ts, "acme", lifecycleSpec, &again); status != http.StatusOK {
		t.Fatalf("resubmit status = %d", status)
	}
	if again.ID != st.ID || again.State != jobs.StateDone {
		t.Fatalf("resubmit = %+v, want the finished job %s", again, st.ID)
	}
	// A different tenant's identical spec is a different job.
	var other jobs.Status
	if status := postSpec(t, ts, "zeta", lifecycleSpec, &other); status != http.StatusOK {
		t.Fatalf("other-tenant POST status = %d", status)
	}
	if other.ID == st.ID {
		t.Fatal("tenants share a job ID")
	}
	pollJobDone(t, ts, other.ID)

	// List: both jobs; filtered list: only the tenant's.
	var list JobsResponse
	if status := getJob(t, ts, "a/b", nil); status != http.StatusBadRequest {
		t.Fatalf("GET /v1/jobs/a/b = %d, want 400", status)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("filtered list = %+v", list.Jobs)
	}

	// DELETE on a finished job is a no-op that reports the final state.
	var after jobs.Status
	if status := deleteJob(t, ts, st.ID, &after); status != http.StatusOK || after.State != jobs.StateDone {
		t.Fatalf("DELETE finished job = %d %+v", status, after)
	}

	// Unknown ID: 404 not_found.
	var eresp errorResponse
	if status := getJob(t, ts, strings.Repeat("0", 64), &eresp); status != http.StatusNotFound || eresp.Error.Kind != KindNotFound {
		t.Fatalf("GET unknown job = %d %+v", status, eresp)
	}

	// Malformed and hostile specs: typed 400s.
	for _, bad := range []string{
		`{"space":`,
		`{"space":{"predictors":["quantum"]}}`,
		`{"space":{"predictors":["phast"]},"bogus":1}`,
	} {
		var e errorResponse
		if status := postSpec(t, ts, "acme", bad, &e); status != http.StatusBadRequest || e.Error.Kind != KindBadRequest {
			t.Fatalf("POST %q = %d %+v, want 400 bad_request", bad, status, e)
		}
	}

	// Wrong methods: 405 with Allow.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs/"+st.ID, nil)
	if resp, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, DELETE" {
			t.Fatalf("PUT job = %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
		}
	}

	if v := m.Get(jobs.CounterCompleted); v != 2 {
		t.Errorf("jobs.completed = %d, want 2", v)
	}
	// Trial rows flowed into the shared results log under their tenants.
	if v := m.Get(stats.TenantCounter("acme", "results")); v == 0 {
		t.Error("no trial rows recorded for acme")
	}
}

// TestJobsDisabled: a daemon without -jobs-dir answers the whole jobs
// surface with 404s.
func TestJobsDisabled(t *testing.T) {
	ts := httptest.NewServer(New(&fakeBackend{}, Options{Metrics: stats.NewMetrics()}).Handler())
	defer ts.Close()
	var eresp errorResponse
	if status := postSpec(t, ts, "acme", lifecycleSpec, &eresp); status != http.StatusNotFound {
		t.Fatalf("POST without controller = %d", status)
	}
	if !strings.Contains(eresp.Error.Message, "-jobs-dir") {
		t.Fatalf("message %q does not point at -jobs-dir", eresp.Error.Message)
	}
	if status := getJob(t, ts, "abc", nil); status != http.StatusNotFound {
		t.Fatalf("GET without controller = %d", status)
	}
}

// TestJobsTenantCapHTTP: the typed TenantBusyError surfaces as HTTP 429
// quota_exceeded — the satellite fix, observed end-to-end.
func TestJobsTenantCapHTTP(t *testing.T) {
	gate := make(chan struct{})
	jb := &gatedJobsBackend{gate: gate}
	ts, _, _ := newJobsServer(t, &fakeBackend{}, jb, 1)

	var st jobs.Status
	if status := postSpec(t, ts, "acme", lifecycleSpec, &st); status != http.StatusOK {
		t.Fatalf("first job status = %d", status)
	}
	second := `{"space": {"predictors": ["phast-conf:3", "phast-conf:7"]}}`
	var eresp errorResponse
	if status := postSpec(t, ts, "acme", second, &eresp); status != http.StatusTooManyRequests || eresp.Error.Kind != KindQuotaExceeded {
		t.Fatalf("over-cap POST = %d %+v, want 429 quota_exceeded", status, eresp)
	}
	// Another tenant is not throttled by acme's cap.
	var zst jobs.Status
	if status := postSpec(t, ts, "zeta", second, &zst); status != http.StatusOK {
		t.Fatalf("other tenant POST = %d (%+v)", status, zst)
	}
	jb.setGate(nil)
	close(gate)
	pollJobDone(t, ts, st.ID)
	if status := postSpec(t, ts, "acme", second, &st); status != http.StatusOK {
		t.Fatalf("POST after drain = %d", status)
	}
	pollJobDone(t, ts, st.ID)
	pollJobDone(t, ts, zst.ID)
}

// TestJobsCancelMidJobLeaksNoGoroutines is the -race lifecycle satellite:
// DELETE on a mid-flight job must wind its goroutines down to the warmed-up
// baseline — nothing keeps running against a cancelled search.
func TestJobsCancelMidJobLeaksNoGoroutines(t *testing.T) {
	jb := &gatedJobsBackend{entered: make(chan struct{}, 1)}
	ts, ctl, _ := newJobsServer(t, &fakeBackend{}, jb, 0)

	// Warm-up: a full job settles the controller's steady state (and the
	// HTTP client's keep-alive pool) into the baseline.
	var warm jobs.Status
	if status := postSpec(t, ts, "acme", lifecycleSpec, &warm); status != http.StatusOK {
		t.Fatalf("warmup POST = %d", status)
	}
	pollJobDone(t, ts, warm.ID)
	before := runtime.NumGoroutine()

	gate := make(chan struct{})
	jb.setGate(gate)
	var st jobs.Status
	if status := postSpec(t, ts, "acme", `{"space": {"predictors": ["phast-conf:3", "phast-conf:7", "phast-conf:15"]}}`, &st); status != http.StatusOK {
		t.Fatalf("POST = %d", status)
	}
	<-jb.entered // the batch is in flight — cancel lands mid-job
	var got jobs.Status
	if status := deleteJob(t, ts, st.ID, &got); status != http.StatusOK || got.State != jobs.StateCancelled {
		t.Fatalf("DELETE mid-job = %d %+v", status, got)
	}
	ctl.Wait(st.ID)

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d after cancel", before, after)
	}

	// The checkpoint survives cancellation: resubmitting restarts the job.
	jb.setGate(nil)
	close(gate)
	var again jobs.Status
	if status := postSpec(t, ts, "acme", `{"space": {"predictors": ["phast-conf:3", "phast-conf:7", "phast-conf:15"]}}`, &again); status != http.StatusOK {
		t.Fatalf("resubmit POST = %d", status)
	}
	if again.ID != st.ID {
		t.Fatalf("resubmit made a new job: %s vs %s", again.ID, st.ID)
	}
	if done := pollJobDone(t, ts, st.ID); done.State != jobs.StateDone {
		t.Fatalf("restarted job = %+v", done)
	}
}

// TestJobsDoNotStarveInteractiveRuns is the WFQ regression satellite: a
// heavy tenant's big job streams its trials through the shared weighted-
// fair worker pool, so a light tenant's single interactive /v1/runs request
// gets its fair share instead of waiting for the whole sweep.
func TestJobsDoNotStarveInteractiveRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	r := experiments.NewRunner(experiments.Options{
		Instructions: 10_000,
		Workers:      1, // one worker: FIFO would serialise the job ahead of the run
		KeepGoing:    true,
		Metrics:      stats.NewMetrics(),
	})
	defer r.Close()
	ctl, err := jobs.NewController(jobs.Options{
		Dir:          t.TempDir(),
		Backend:      r,
		Metrics:      r.Metrics(),
		Apps:         []string{"511.povray"},
		Instructions: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ts := httptest.NewServer(New(r, Options{Metrics: r.Metrics(), Jobs: ctl}).Handler())
	defer ts.Close()

	heavy := `{
		"space": {
			"predictors": ["phast-conf:1", "phast-conf:3", "phast-conf:7", "phast-conf:15"],
			"train_at_detect": [false, true]
		},
		"instructions": 50000
	}`
	var st jobs.Status
	if status := postSpec(t, ts, "heavy", heavy, &st); status != http.StatusOK {
		t.Fatalf("job POST = %d", status)
	}

	// The light tenant's one small run, submitted while the job floods the
	// single worker.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs",
		strings.NewReader(`{"config":{"app":"511.povray","predictor":"none","instructions":3000}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "light")
	start := time.Now()
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var run RunResult
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lightElapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK || run.Run == nil {
		t.Fatalf("light run = %d (%+v)", resp.StatusCode, run.Error)
	}

	// The job was still churning when the light run came back — the run did
	// not wait out the sweep.
	var mid jobs.Status
	if status := getJob(t, ts, st.ID, &mid); status != http.StatusOK {
		t.Fatalf("GET job = %d", status)
	}
	done := pollJobDone(t, ts, st.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job = %+v", done)
	}
	jobElapsed := time.Duration(done.ElapsedMS) * time.Millisecond
	if mid.State == jobs.StateRunning {
		return // the strong signal: answered while the sweep was mid-flight
	}
	// Fallback for very fast machines: the light run must still have beaten
	// the sweep by a wide margin, or fairness did nothing.
	if lightElapsed > jobElapsed/2 {
		t.Errorf("light run took %v of the job's %v — starved behind the sweep", lightElapsed, jobElapsed)
	}
}
