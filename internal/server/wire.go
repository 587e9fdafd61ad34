package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracestore"
)

// RunRequest is the body of POST /v1/runs: one simulation config plus an
// optional per-request deadline. The config is normalised server-side, so
// defaultable fields (machine, predictor, instruction count) may be omitted.
type RunRequest struct {
	Config sim.Config `json:"config"`
	// TimeoutMS bounds this request's wall-clock time (queue wait included).
	// Zero uses the server default; the server's MaxRunTimeout caps it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: a sweep of configs executed
// through the runner's shared worker pool, with per-row outcomes.
type BatchRequest struct {
	Configs   []sim.Config `json:"configs"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"` // whole-batch deadline
}

// RunResult is one config's outcome: exactly one of Run and Error is set —
// the same invariant as experiments.Result, serialised.
type RunResult struct {
	Config sim.Config `json:"config"`
	Run    *stats.Run `json:"run,omitempty"`
	Error  *ErrorBody `json:"error,omitempty"`
}

// BatchResponse is the body of a POST /v1/batch reply, results in request
// order.
type BatchResponse struct {
	Results []RunResult `json:"results"`
}

// ErrorBody is the wire form of a failed run: the sim.SimError kind taxonomy
// (panic, deadlock, timeout, cancelled, config, internal) extended with the
// serving layer's own kinds (rejected, draining, bad_request).
type ErrorBody struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// PeerCacheEntry is the body of GET /v1/peer/cache/{key}: one member's
// cached result for a content-addressed key, served to a fleet peer filling
// its own cache (the two-tier fetch path). The key is echoed so the fetcher
// can cross-check it against what it asked for.
type PeerCacheEntry struct {
	Key string     `json:"key"`
	Run *stats.Run `json:"run"`
}

// TraceUploadResponse is the body of a successful POST /v1/traces: the
// canonical content digest the upload stored under (run it with
// Config.App = "trace:<digest>"), its canonical size and instruction count,
// and whether the store already held it (a dup re-upload is free — it is
// acknowledged without charging the tenant's quota again).
type TraceUploadResponse struct {
	Digest string `json:"digest"`
	Bytes  int64  `json:"bytes"`
	Insts  int    `json:"insts"`
	Dup    bool   `json:"dup,omitempty"`
}

// ResultsResponse is the body of GET /v1/results?tenant=...: one page of the
// tenant's persistent run log, oldest first. Each record is a RunResult as
// appended at run time. Next is the cursor for the following page (pass it
// back as ?after=); zero means this page reached the end of the log.
type ResultsResponse struct {
	Tenant  string                   `json:"tenant"`
	Results []tracestore.ResultEntry `json:"results"`
	Next    int64                    `json:"next,omitempty"`
}

// MetricsResponse is the JSON form of GET /metrics?format=json.
type MetricsResponse struct {
	Counters   map[string]uint64                  `json:"counters"`
	Histograms map[string]stats.HistogramSnapshot `json:"histograms"`
}

// ClusterMember is one member's row in GET /v1/cluster: this node's view of
// that member's health (failure-detector state) and ring liveness. The self
// row always reads up/live — a node does not probe itself.
type ClusterMember struct {
	URL   string `json:"url"`
	Self  bool   `json:"self,omitempty"`
	State string `json:"state"` // up | suspect | down (draining for self mid-drain)
	// Live reports ring membership in this node's current health-filtered
	// view: false means the member's keys are remapped elsewhere until it
	// recovers.
	Live             bool   `json:"live"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	LastError        string `json:"last_error,omitempty"`
}

// ClusterResponse is the body of GET /v1/cluster: this member's view of the
// fleet. Views are per-node (the failure detector is coordination-free), so
// operators compare /v1/cluster across members to see a partition from both
// sides.
type ClusterResponse struct {
	Self        string          `json:"self"`
	FleetSize   int             `json:"fleet_size"`
	LiveMembers int             `json:"live_members"`
	Members     []ClusterMember `json:"members"`
}

// Serving-layer error kinds (beyond the sim.SimError taxonomy).
const (
	// KindRejected marks a request bounced by admission control (HTTP 429):
	// the run queue was full. Retry after backoff.
	KindRejected = "rejected"
	// KindDraining marks a request refused because the daemon is shutting
	// down (HTTP 503). Retry against another replica.
	KindDraining = "draining"
	// KindBadRequest marks an unparseable or oversized request (HTTP 400).
	KindBadRequest = "bad_request"
	// KindNotFound marks a peer cache fetch for a key this member does not
	// hold (HTTP 404). The fetcher falls through to its next candidate or
	// simulates.
	KindNotFound = "not_found"
	// KindTooLarge marks a trace upload over the store's per-trace byte cap
	// (HTTP 413). Not retryable: the trace must shrink.
	KindTooLarge = "too_large"
	// KindQuotaExceeded marks a request refused by a per-tenant limit (HTTP
	// 429): a trace upload past the tenant's stored-bytes quota, or a run
	// past its in-flight cap. Unlike KindRejected (the whole server is
	// saturated) this is the tenant's own footprint — other tenants are
	// unaffected, and retrying only helps after the tenant frees capacity.
	KindQuotaExceeded = "quota_exceeded"
)

// ErrRejected is the admission-control rejection: the running set and the
// wait queue are both full. Mapped to HTTP 429 with Retry-After.
var ErrRejected = errors.New("server: at capacity, request rejected")

// ErrDraining refuses new work during graceful shutdown (HTTP 503).
var ErrDraining = errors.New("server: draining, not accepting new runs")

// ErrTenantBusy refuses a run because its tenant already has
// Options.TenantMaxInflight requests in flight on this member (HTTP 429,
// quota_exceeded). Admission control for the server as a whole is ErrRejected;
// this one fires even on an idle server when a single tenant floods it.
var ErrTenantBusy = errors.New("server: tenant in-flight request quota exceeded")

// peerStatusError carries a fleet owner's HTTP error response verbatim.
// When a proxied run fails on the owner, the proxying node replays the
// owner's status and body bit-for-bit instead of re-deriving them — the
// typed sim.SimError mapping the owner computed is preserved end-to-end
// across the extra hop.
type peerStatusError struct {
	status int
	body   ErrorBody
}

func (e *peerStatusError) Error() string {
	return fmt.Sprintf("peer: %s (%d %s)", e.body.Message, e.status, e.body.Kind)
}

// errorBody maps a failed run to its HTTP status and wire form. The sim
// taxonomy maps kind-for-kind; admission and drain rejections carry the
// serving-layer kinds; an owner's error replays verbatim.
func errorBody(err error) (int, ErrorBody) {
	var pe *peerStatusError
	if errors.As(err, &pe) {
		return pe.status, pe.body
	}
	switch {
	case errors.Is(err, ErrRejected):
		return http.StatusTooManyRequests, ErrorBody{Kind: KindRejected, Message: err.Error()}
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, ErrorBody{Kind: KindDraining, Message: err.Error()}
	case errors.Is(err, ErrTenantBusy), errors.Is(err, tracestore.ErrQuota):
		return http.StatusTooManyRequests, ErrorBody{Kind: KindQuotaExceeded, Message: err.Error()}
	case errors.Is(err, tracestore.ErrTooLarge):
		return http.StatusRequestEntityTooLarge, ErrorBody{Kind: KindTooLarge, Message: err.Error()}
	case errors.Is(err, tracestore.ErrNotFound):
		return http.StatusNotFound, ErrorBody{Kind: KindNotFound, Message: err.Error()}
	case errors.Is(err, jobs.ErrUnknownJob):
		return http.StatusNotFound, ErrorBody{Kind: KindNotFound, Message: err.Error()}
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable, ErrorBody{Kind: KindDraining, Message: err.Error()}
	}
	var se *jobs.SpecError
	if errors.As(err, &se) {
		return http.StatusBadRequest, ErrorBody{Kind: KindBadRequest, Message: err.Error()}
	}
	var tbe *jobs.TenantBusyError
	if errors.As(err, &tbe) {
		// The same taxonomy as ErrTenantBusy: this tenant's own footprint,
		// not server saturation — frees up when one of its jobs finishes.
		return http.StatusTooManyRequests, ErrorBody{Kind: KindQuotaExceeded, Message: err.Error()}
	}
	var fe *tracestore.FormatError
	if errors.As(err, &fe) {
		return http.StatusBadRequest, ErrorBody{Kind: KindBadRequest, Message: err.Error()}
	}
	body := ErrorBody{Kind: string(sim.KindOf(err)), Message: err.Error()}
	switch sim.KindOf(err) {
	case sim.ErrConfig:
		return http.StatusBadRequest, body
	case sim.ErrTimeout:
		return http.StatusGatewayTimeout, body
	case sim.ErrCancelled:
		// The client went away or the daemon is being torn down; 503 tells a
		// retrying proxy the request may succeed elsewhere/later.
		return http.StatusServiceUnavailable, body
	case sim.ErrVerify:
		// An architectural divergence on a Verify run is a simulator defect,
		// not a client mistake: surface it like any other internal failure.
		return http.StatusInternalServerError, body
	default: // panic, deadlock, internal
		return http.StatusInternalServerError, body
	}
}

// retryAfter is the backoff hint attached to 429/503 responses. A constant
// is honest here: the server cannot predict when a simulation slot frees.
const retryAfter = "1"

// timeoutOf converts a request's timeout_ms field, clamped to [0, max]
// (max 0 = uncapped).
func timeoutOf(ms int64, def, max time.Duration) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d
}
