package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/contentaddr"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// encodedTrace builds a distinct canonical trace stream per (n, seed) and
// returns its bytes plus content digest. Distinct seeds per test matter:
// the provided-trace registry is process-global.
func encodedTrace(t *testing.T, n int, seed int64) ([]byte, string) {
	t.Helper()
	tr, err := sim.TraceFor(workload.Names()[0], n, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), contentaddr.Sum(buf.Bytes())
}

// doUpload posts body to url's trace endpoint under tenant, decoding either
// the upload response or the error body.
func doUpload(t *testing.T, url, tenant string, body []byte) (int, TraceUploadResponse, ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/traces", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		var up TraceUploadResponse
		if err := json.Unmarshal(data, &up); err != nil {
			t.Fatalf("bad upload response %q: %v", data, err)
		}
		return resp.StatusCode, up, ErrorBody{}
	}
	var eb errorResponse
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("status %d: bad error body %q: %v", resp.StatusCode, data, err)
	}
	return resp.StatusCode, TraceUploadResponse{}, eb.Error
}

// newTraceServer boots a standalone server over a real runner with a trace
// store and a results log, resolver wired — the single-node production
// shape.
func newTraceServer(t *testing.T, storeOpt tracestore.Options, opt Options) (*httptest.Server, *Server, *experiments.Runner) {
	t.Helper()
	reg := stats.NewMetrics()
	runner := experiments.NewRunner(experiments.Options{
		Instructions: 3_000, Metrics: reg, KeepGoing: true,
	})
	t.Cleanup(runner.Close)
	opt.Metrics = reg
	opt.TraceStore = tracestore.New(t.TempDir(), storeOpt)
	opt.Results = tracestore.NewResultLog(t.TempDir())
	srv := New(runner, opt)
	runner.SetTraceResolver(srv.TraceFetch)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, runner
}

// TestTraceUploadRunRoundTrip is the subsystem's golden path: upload a
// trace, read its canonical bytes back, run it by digest over HTTP, and
// check the row is byte-identical to the same trace-app config executed
// in-process. The outcome also lands in the tenant's results log.
func TestTraceUploadRunRoundTrip(t *testing.T) {
	ts, _, runner := newTraceServer(t, tracestore.Options{}, Options{})
	payload, digest := encodedTrace(t, 3_000, 9101)

	status, up, eb := doUpload(t, ts.URL, "acme", payload)
	if status != http.StatusOK {
		t.Fatalf("upload: status %d (%+v)", status, eb)
	}
	if up.Digest != digest || up.Dup || up.Insts != 3_000 {
		t.Fatalf("upload response %+v, want digest %s, 3000 insts, no dup", up, digest)
	}
	// Re-upload is acknowledged as a dup under the same digest.
	if _, up2, _ := doUpload(t, ts.URL, "acme", payload); !up2.Dup || up2.Digest != digest {
		t.Fatalf("re-upload response %+v, want dup under %s", up2, digest)
	}

	// The stored canonical bytes round-trip through GET /v1/traces/{digest}.
	resp, err := http.Get(ts.URL + "/v1/traces/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
		t.Fatalf("GET trace: status %d, %d bytes, want the %d uploaded bytes", resp.StatusCode, len(got), len(payload))
	}

	// Run by digest over HTTP...
	cfg := sim.Config{App: sim.TraceAppPrefix + digest, Predictor: "phast", Instructions: 3_000}
	client := &http.Client{}
	var viaHTTP RunResult
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(mustJSON(t, RunRequest{Config: cfg})))
	req.Header.Set(TenantHeader, "acme")
	hresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("run by digest: status %d: %s", hresp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &viaHTTP); err != nil {
		t.Fatal(err)
	}
	// ...and in-process: byte-identical rows.
	direct, err := runner.RunConfigContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	httpRow, _ := json.Marshal(viaHTTP.Run)
	directRow, _ := json.Marshal(direct)
	if !bytes.Equal(httpRow, directRow) {
		t.Fatalf("HTTP row differs from in-process:\nhttp   %s\ndirect %s", httpRow, directRow)
	}

	// The run is in acme's persistent results log.
	var page ResultsResponse
	getJSON(t, ts.URL+"/v1/results?tenant=acme", &page)
	if len(page.Results) != 1 {
		t.Fatalf("results log holds %d rows, want 1", len(page.Results))
	}
	var logged RunResult
	if err := json.Unmarshal(page.Results[0].Record, &logged); err != nil {
		t.Fatal(err)
	}
	if logged.Config.App != cfg.App || logged.Run == nil {
		t.Fatalf("logged row %+v, want the trace run", logged)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("GET %s: bad body %q: %v", url, data, err)
	}
}

// TestTraceUploadTypedErrors pins the upload path's error taxonomy: every
// rejection is a typed JSON error on the documented status, and nothing is
// stored for a rejected stream.
func TestTraceUploadTypedErrors(t *testing.T) {
	payload, digest := encodedTrace(t, 2_000, 9202)
	ts, srv, _ := newTraceServer(t, tracestore.Options{
		MaxTraceBytes:    int64(len(payload)) + 256,
		TenantQuotaBytes: int64(len(payload)) + 256,
	}, Options{})

	// Garbage stream: 400 bad_request, nothing stored.
	if status, _, eb := doUpload(t, ts.URL, "acme", []byte("MDPT this is not a trace")); status != http.StatusBadRequest || eb.Kind != KindBadRequest {
		t.Fatalf("garbage upload: status %d kind %q, want 400 %s", status, eb.Kind, KindBadRequest)
	}
	// Truncated stream: also 400.
	if status, _, eb := doUpload(t, ts.URL, "acme", payload[:len(payload)/2]); status != http.StatusBadRequest || eb.Kind != KindBadRequest {
		t.Fatalf("truncated upload: status %d kind %q, want 400 %s", status, eb.Kind, KindBadRequest)
	}
	// Oversized: 413 too_large.
	big, _ := encodedTrace(t, 6_000, 9203)
	if status, _, eb := doUpload(t, ts.URL, "acme", big); status != http.StatusRequestEntityTooLarge || eb.Kind != KindTooLarge {
		t.Fatalf("oversized upload: status %d kind %q, want 413 %s", status, eb.Kind, KindTooLarge)
	}
	// Invalid tenant: 400 before anything is read.
	if status, _, eb := doUpload(t, ts.URL, "../etc", payload); status != http.StatusBadRequest || eb.Kind != KindBadRequest {
		t.Fatalf("bad tenant: status %d kind %q, want 400 %s", status, eb.Kind, KindBadRequest)
	}

	// First valid upload lands; the tenant's next distinct trace exceeds its
	// stored-bytes quota: 429 quota_exceeded with Retry-After.
	if status, _, eb := doUpload(t, ts.URL, "acme", payload); status != http.StatusOK {
		t.Fatalf("valid upload: status %d (%+v)", status, eb)
	}
	second, _ := encodedTrace(t, 2_000, 9204)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/traces", bytes.NewReader(second))
	req.Header.Set(TenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var eb errorResponse
	if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal(data, &eb) != nil || eb.Error.Kind != KindQuotaExceeded {
		t.Fatalf("quota upload: status %d body %s, want 429 %s", resp.StatusCode, data, KindQuotaExceeded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// A different tenant still has room for the same second trace.
	if status, _, eb := doUpload(t, ts.URL, "globex", second); status != http.StatusOK {
		t.Fatalf("other tenant upload: status %d (%+v)", status, eb)
	}

	// Reads: unknown digest 404, malformed digest 400.
	unknown := contentaddr.Sum([]byte("never uploaded"))
	if resp, err := http.Get(ts.URL + "/v1/traces/" + unknown); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: %v status %d, want 404", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/traces/" + digest[:10]); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed digest: %v status %d, want 400", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	_ = srv
}

// TestTenantInflightQuota: with TenantMaxInflight=1 and one request parked
// in the backend, the same tenant's second request bounces 429
// quota_exceeded while another tenant is admitted untouched — the gate is
// per tenant, not per server.
func TestTenantInflightQuota(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	m := stats.NewMetrics()
	ts := httptest.NewServer(New(fb, Options{MaxInflight: 4, TenantMaxInflight: 1, Metrics: m}).Handler())
	defer ts.Close()
	client := &http.Client{}

	post := func(tenant string, seed int64) (*http.Response, error) {
		body := mustJSON(t, RunRequest{Config: sim.Config{App: "a", Predictor: "none", Seed: seed}})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(body))
		req.Header.Set(TenantHeader, tenant)
		return client.Do(req)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	first := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, err := post("acme", 1)
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	// Wait until acme's first request holds its unit.
	waitUntil(t, func() bool { return fb.calls.Load() >= 1 })

	resp, err := post("acme", 2)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var eb errorResponse
	if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal(data, &eb) != nil || eb.Error.Kind != KindQuotaExceeded {
		t.Fatalf("second acme run: status %d body %s, want 429 %s", resp.StatusCode, data, KindQuotaExceeded)
	}
	if m.Get(stats.TenantCounter("acme", "rejected")) == 0 {
		t.Fatal("tenant rejection not counted")
	}

	// globex is not acme: admitted despite acme being at its cap — its run
	// reaches the backend (which parks it on the shared gate) instead of
	// bouncing at the tenant gate.
	wg.Add(1)
	second := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, err := post("globex", 3)
		if err != nil {
			second <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		second <- resp.StatusCode
	}()
	waitUntil(t, func() bool { return fb.calls.Load() >= 2 })

	close(fb.gate)
	wg.Wait()
	if got := <-first; got != http.StatusOK {
		t.Fatalf("first acme run: status %d, want 200", got)
	}
	if got := <-second; got != http.StatusOK {
		t.Fatalf("globex run: status %d, want 200", got)
	}
	// The unit frees once the request completes.
	resp, err = post("acme", 4)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acme after release: status %d, want 200", resp.StatusCode)
	}
}

// TestResultsPagination: outcomes append per tenant and page by cursor.
func TestResultsPagination(t *testing.T) {
	fb := &fakeBackend{}
	reg := stats.NewMetrics()
	srv := New(fb, Options{Metrics: reg, Results: tracestore.NewResultLog(t.TempDir())})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{}

	for i := 0; i < 3; i++ {
		body := mustJSON(t, RunRequest{Config: sim.Config{App: fmt.Sprintf("app%d", i), Predictor: "none"}})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(body))
		req.Header.Set(TenantHeader, "acme")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
	}

	var apps []string
	after := int64(0)
	for page := 0; page < 4; page++ {
		var pr ResultsResponse
		getJSON(t, fmt.Sprintf("%s/v1/results?tenant=acme&after=%d&limit=2", ts.URL, after), &pr)
		if len(pr.Results) == 0 {
			break
		}
		for _, e := range pr.Results {
			var row RunResult
			if err := json.Unmarshal(e.Record, &row); err != nil {
				t.Fatal(err)
			}
			apps = append(apps, row.Config.App)
		}
		after = pr.Next
	}
	if len(apps) != 3 || apps[0] != "app0" || apps[2] != "app2" {
		t.Fatalf("paged apps %v, want [app0 app1 app2] in order", apps)
	}

	// Another tenant's log is empty; an invalid tenant is a 400.
	var other ResultsResponse
	getJSON(t, ts.URL+"/v1/results?tenant=globex", &other)
	if len(other.Results) != 0 {
		t.Fatalf("globex log holds %d rows, want 0", len(other.Results))
	}
	resp, err := http.Get(ts.URL + "/v1/results?tenant=..bad")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant listing: status %d, want 400", resp.StatusCode)
	}
}

// TestFleetTraceUploadRunAnyNode is the tentpole's fleet property: a trace
// uploaded to one member is runnable by digest from every member, with
// byte-identical rows, and the stream is ingested exactly once (peers pull
// the canonical bytes rather than re-uploading).
func TestFleetTraceUploadRunAnyNode(t *testing.T) {
	nodes := startFleet(t, 3)
	payload, digest := encodedTrace(t, 3_000, 9305)

	status, up, eb := doUpload(t, nodes[0].url, "acme", payload)
	if status != http.StatusOK || up.Digest != digest {
		t.Fatalf("upload to node 0: status %d digest %s (%+v)", status, up.Digest, eb)
	}

	cfg := sim.Config{App: sim.TraceAppPrefix + digest, Predictor: "phast", Instructions: 3_000}
	client := &http.Client{}
	var rows [][]byte
	for i, n := range nodes {
		body := mustJSON(t, RunRequest{Config: cfg})
		req, _ := http.NewRequest(http.MethodPost, n.url+"/v1/runs", bytes.NewReader(body))
		req.Header.Set(TenantHeader, "acme")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d run by digest: status %d: %s", i, resp.StatusCode, data)
		}
		var rr RunResult
		if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatal(err)
		}
		row, _ := json.Marshal(rr.Run)
		rows = append(rows, row)
	}
	for i := 1; i < len(rows); i++ {
		if !bytes.Equal(rows[0], rows[i]) {
			t.Errorf("node %d row differs from node 0:\nnode0 %s\nnode%d %s", i, rows[0], i, rows[i])
		}
	}

	// Exactly one member ingested the upload; replication/fetch moved the
	// canonical bytes, never a second client upload.
	if got := sumCounter(nodes, CounterTraceUploads); got != 1 {
		t.Errorf("fleet-wide uploads = %d, want 1", got)
	}
	// The canonical bytes are retrievable from whichever members hold them.
	var holders int
	for _, n := range nodes {
		if n.store.Has(digest) {
			holders++
		}
	}
	if holders == 0 {
		t.Error("no member holds the trace after the runs")
	}
}

// waitUntil polls cond for up to ~5s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// FuzzTraceUpload posts arbitrary bytes at POST /v1/traces: whatever the
// body, the server must answer a documented status with a JSON error body
// (or a well-formed upload response), never panic, and never store anything
// for a rejected stream — the store must stay consistent with the count of
// accepted uploads.
func FuzzTraceUpload(f *testing.F) {
	tr, err := sim.TraceFor(workload.Names()[0], 1_000, 424242)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := tr.Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte("MDPT"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	reg := stats.NewMetrics()
	store := tracestore.New(f.TempDir(), tracestore.Options{MaxTraceBytes: 1 << 20})
	srv := New(&fakeBackend{}, Options{MaxInflight: 2, Metrics: reg, TraceStore: store})
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(ts.Close)

	validStatus := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests:       true,
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !validStatus[resp.StatusCode] {
			t.Fatalf("unexpected status %d for %d-byte body", resp.StatusCode, len(body))
		}
		if !json.Valid(out) {
			t.Fatalf("status %d: response is not JSON: %q", resp.StatusCode, out)
		}
		if resp.StatusCode == http.StatusOK {
			var up TraceUploadResponse
			if json.Unmarshal(out, &up) != nil || !contentaddr.Valid(up.Digest) {
				t.Fatalf("200 with a malformed upload response: %q", out)
			}
			// An accepted digest must be immediately readable.
			if !store.Has(up.Digest) {
				t.Fatalf("accepted digest %s not in the store", up.Digest)
			}
		} else {
			var eb errorResponse
			if json.Unmarshal(out, &eb) != nil || eb.Error.Kind == "" {
				t.Fatalf("status %d: error body off the wire shape: %q", resp.StatusCode, out)
			}
		}
	})
}
