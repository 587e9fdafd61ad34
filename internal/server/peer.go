// Fleet mechanics: what turns one phastd into a member of a consistent-hash
// cluster. Three pieces live here, all over the existing wire format:
//
//   - the proxy path: a node that receives /v1/runs for a key it does not
//     own forwards the request to the ring owner's /v1/peer/run, so each
//     unique config executes (and caches, and coalesces) on exactly one
//     member. The owner's response — success or typed error — is replayed
//     verbatim (peerStatusError), preserving the sim.SimError mapping
//     end-to-end. Transport failures retry with budget-aware backoff
//     (retry.go). When the retries are spent the request degrades to
//     executing locally: availability beats dedup. A draining owner
//     degrades the same way.
//   - the peer cache-fetch path: the run cache's peer tier
//     (runcache.PeerFetchFunc). On a local mem+disk miss the owner asks the
//     ring's next candidates (the members that owned the key before a
//     membership change) for their cached entry via GET /v1/peer/cache/{key}
//     before paying for a simulation.
//   - the serving side of both: POST /v1/peer/run (a run that never
//     re-proxies — ownership was already decided by the caller, so
//     inconsistent ring views can cost an extra hop but never a loop) and
//     GET /v1/peer/cache/{key} (strictly validated key → local-tier lookup
//     only, 404 on miss).
//
// Every hop, trace transfers included, goes out through peerClient.send,
// which reports its outcome to the failure detector (cluster.Prober): a
// peer whose hops keep failing is marked Down and drops out of the live
// ring, so later proxies, cache fetches and trace fetches route around it
// without dialling it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fleet-serving counters, next to the runcache.peer.* set the cache tier
// maintains (see internal/runcache) and the retry counter (retry.go).
const (
	// CounterProxied counts requests forwarded to their ring owner.
	CounterProxied = "server.proxied"
	// CounterProxyErrors counts proxied requests that fell back to local
	// execution (owner unreachable or draining).
	CounterProxyErrors = "server.proxy.errors"
	// CounterPeerRuns counts /v1/peer/run requests served for other members.
	CounterPeerRuns = "server.peer.runs"
	// CounterPeerCacheServed counts peer cache fetches answered with a hit.
	CounterPeerCacheServed = "runcache.peer.served"
)

// peerFetchCandidates is how many ring successors a peer cache fetch tries
// before conceding a fleet-wide miss. Two covers the common membership
// churn (the previous owner, plus its own previous owner) without turning
// a cold key into a fleet-wide broadcast.
const peerFetchCandidates = 2

// errInjectedPeer marks a fault-injected peer transport failure.
var errInjectedPeer = errors.New("faultinject: injected peer fetch failure")

// linkFault consults the active fault plan for this node's link to peer:
// a firing partition (whole link, keyed by member URL), a flap currently in
// its severed window, or a per-request peerfetch fault (keyed by the cache
// key; skipped when key is empty, e.g. health probes) all return an error
// before any bytes reach the network. An active latency fault sleeps
// PeerLatencyDelay instead — slow links cost time, never correctness.
func linkFault(ctx context.Context, peer, key string) error {
	plan := faultinject.Active()
	if plan == nil {
		return nil
	}
	if key != "" && plan.Should(faultinject.FaultPeerFetch, key) {
		return errInjectedPeer
	}
	if plan.Should(faultinject.FaultPeerPartition, peer) {
		return fmt.Errorf("%w: link to %s partitioned", errInjectedPeer, peer)
	}
	if plan.Should(faultinject.FaultPeerFlap, peer) && plan.FlapSevered(peer, time.Now()) {
		return fmt.Errorf("%w: link to %s flapping", errInjectedPeer, peer)
	}
	if plan.Should(faultinject.FaultPeerLatency, peer) {
		select {
		case <-time.After(faultinject.PeerLatencyDelay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// peerClient issues the fleet's internal HTTP calls.
type peerClient struct {
	s         *Server
	http      *http.Client
	retry     retryPolicy
	fetchHist *stats.Histogram
}

func newPeerClient(s *Server) *peerClient {
	return &peerClient{
		s:    s,
		http: &http.Client{}, // per-call contexts carry the deadlines
		retry: retryPolicy{attempts: s.opt.ProxyAttempts,
			base: s.opt.RetryBackoff}.norm(),
		fetchHist: s.metrics.Histogram(runcache.HistPeerFetch,
			stats.DefaultLatencyBuckets),
	}
}

// send is every peer hop's trip over the wire: the injected link faults,
// then the HTTP round trip, whose outcome goes to the failure detector.
// Any HTTP answer is a success, even a 503 from a draining owner or another
// typed error: the peer is alive and talking. A transport failure counts
// against the peer, unless the caller's own context (ctx, not the
// request's per-attempt timeout) has already ended: then it is not the
// peer's fault and counts as nothing.
func (p *peerClient) send(ctx context.Context, req *http.Request, peer, key string) (*http.Response, error) {
	err := linkFault(req.Context(), peer, key)
	var resp *http.Response
	if err == nil {
		resp, err = p.http.Do(req)
	}
	if err == nil || ctx.Err() == nil {
		p.s.prober.Observe(peer, err)
	}
	return resp, err
}

// budgetExhausted types a spent retry budget as sim.ErrTimeout so the
// client sees 504 Gateway Timeout — never a generic 500, and never a silent
// nil result. proxyFallback refuses local execution for this kind: a
// request with no deadline budget left cannot pay for a simulation either.
func budgetExhausted(cfg sim.Config, last error) error {
	if last == nil {
		last = errBudget
	}
	return &sim.SimError{Kind: sim.ErrTimeout, Config: cfg,
		Err: fmt.Errorf("%w (last: %v)", errBudget, last)}
}

// proxyRun forwards one normalised config to its owner's /v1/peer/run and
// returns the owner's result, retrying transport failures with budget-aware
// backoff. Error taxonomy: a *peerStatusError wraps the owner's own HTTP
// error response (authoritative — replayed verbatim, never retried); a
// sim.ErrTimeout means the deadline budget ran out (504, no fallback); any
// other error is transport-level — the owner never saw the request, and
// the caller may fall back to executing locally.
func (p *peerClient) proxyRun(ctx context.Context, owner, key string, cfg sim.Config) (*stats.Run, error) {
	var lastErr error
	for attempt := 1; attempt <= p.retry.attempts; attempt++ {
		if attempt > 1 {
			if p.s.prober.StateOf(owner) == cluster.StateDown {
				break // the earlier attempts marked it Down: stop dialling it
			}
			p.s.metrics.Add(CounterRetries, 1)
			if err := sleepBudget(ctx, p.retry.backoff(key, attempt-1)); err != nil {
				return nil, budgetExhausted(cfg, lastErr)
			}
		}
		run, err := p.proxyOnce(ctx, owner, key, cfg)
		if err == nil {
			return run, nil
		}
		var pe *peerStatusError
		var se *sim.SimError
		if errors.As(err, &pe) || errors.As(err, &se) {
			// The owner answered and its verdict stands, or the budget ran
			// out before the wire.
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			// The request's own deadline (or client) ended mid-attempt: not
			// the peer's fault, and there is no budget left to retry with.
			return nil, budgetExhausted(cfg, lastErr)
		}
	}
	return nil, lastErr
}

// proxyOnce is a single proxy attempt.
func (p *peerClient) proxyOnce(ctx context.Context, owner, key string, cfg sim.Config) (*stats.Run, error) {
	// Forward the remaining request budget so the owner clocks the same
	// deadline this node would have.
	var timeoutMS int64
	if d, ok := ctx.Deadline(); ok {
		timeoutMS = int64(time.Until(d) / time.Millisecond)
		if timeoutMS <= 0 {
			return nil, budgetExhausted(cfg, nil)
		}
	}
	body, err := json.Marshal(RunRequest{Config: cfg, TimeoutMS: timeoutMS})
	if err != nil {
		return nil, fmt.Errorf("server: marshal proxy request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		owner+"/v1/peer/run", strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// The owner schedules the run on the same tenant share this node would
	// have: tenancy crosses the proxy hop in the header, never the config.
	req.Header.Set(TenantHeader, experiments.TenantFrom(ctx))
	resp, err := p.send(ctx, req, owner, key)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var er struct {
			Error ErrorBody `json:"error"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&er); err != nil || er.Error.Kind == "" {
			return nil, fmt.Errorf("server: owner %s replied %s with an unreadable error body", owner, resp.Status)
		}
		return nil, &peerStatusError{status: resp.StatusCode, body: er.Error}
	}
	var rr RunResult
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, fmt.Errorf("server: decode owner %s response: %w", owner, err)
	}
	if rr.Run == nil {
		return nil, fmt.Errorf("server: owner %s replied 200 without a run", owner)
	}
	return rr.Run, nil
}

// fetchCache asks one member for its cached entry under key. Returns
// (run, true, nil) on a hit, (nil, false, nil) on a clean 404 miss, and an
// error for anything else (unreachable member, malformed response).
func (p *peerClient) fetchCache(ctx context.Context, from, key string) (*stats.Run, bool, error) {
	fctx, cancel := context.WithTimeout(ctx, p.s.opt.PeerFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet,
		from+"/v1/peer/cache/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := p.send(ctx, req, from, key)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var e PeerCacheEntry
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			return nil, false, fmt.Errorf("server: decode peer cache entry from %s: %w", from, err)
		}
		if e.Key != key || e.Run == nil {
			return nil, false, fmt.Errorf("server: peer %s served entry for key %q, asked for %q", from, e.Key, key)
		}
		return e.Run, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("server: peer %s cache fetch: %s", from, resp.Status)
	}
}

// PeerFetch is the run cache's peer tier (runcache.PeerFetchFunc): on a
// local miss it asks the key's next ring candidates for their cached entry
// before the cache simulates. Wire it at startup:
//
//	srv := server.New(runner, server.Options{Fleet: fleet, ...})
//	runner.SetPeerFetch(srv.PeerFetch)
//
// Candidates come from the live (health-filtered) ring, so Down members are
// never asked; they are tried in ring order until one hits.
//
// Hit/miss accounting is the cache's (runcache.peer.hits / .misses); this
// side counts failed attempts (runcache.peer.errors) and observes the
// per-attempt latency histogram. Fetch failures are misses: the run always
// degrades to simulating locally.
func (s *Server) PeerFetch(ctx context.Context, key string) (*stats.Run, bool) {
	if s.peers == nil {
		return nil, false
	}
	for _, from := range s.fleet.FetchCandidates(key, peerFetchCandidates) {
		start := time.Now()
		run, ok, err := s.peers.fetchCache(ctx, from, key)
		s.peers.fetchHist.ObserveDuration(time.Since(start))
		if err != nil {
			s.metrics.Add(runcache.CounterPeerErrors, 1)
			if ctx.Err() != nil {
				return nil, false
			}
			continue
		}
		if ok {
			return run, true
		}
	}
	return nil, false
}

// proxyFallback decides whether a failed proxy should degrade to local
// execution. Yes for transport-level failures (the owner never saw the
// request) and for a draining owner (it refused by policy, not capacity);
// no when this request's own context already ended or its deadline budget
// is spent (sim.ErrTimeout — there is no time left to execute locally
// either), and no for any other owner-side response — a 429 must stay a
// 429, or proxying would quietly defeat the fleet's admission control.
func proxyFallback(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	if sim.KindOf(err) == sim.ErrTimeout {
		return false
	}
	var pe *peerStatusError
	if errors.As(err, &pe) {
		return pe.body.Kind == KindDraining
	}
	return true
}

// handlePeerRun serves POST /v1/peer/run: a run executed on behalf of
// another member. Identical to /v1/runs except it never re-proxies — the
// caller already resolved ownership, so disagreeing ring views (mid-restart
// membership skew) cost one extra hop at worst, never a forwarding loop.
func (s *Server) handlePeerRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add(CounterPeerRuns, 1)
	s.handleRun(w, r, true)
}

// handlePeerCache serves GET /v1/peer/cache/{key}: this member's cached
// entry for a content-addressed key, local tiers only (memory → disk, never
// simulate, never re-fetch from peers). The key is validated to the exact
// [0-9a-f]{64} shape runcache.Key produces before anything touches the
// filesystem — path traversal is rejected by construction, not by cleaning.
func (s *Server) handlePeerCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/peer/cache/")
	if !runcache.ValidKey(key) {
		writeJSON(w, http.StatusBadRequest, struct {
			Error ErrorBody `json:"error"`
		}{ErrorBody{Kind: KindBadRequest, Message: "malformed cache key (want 64 lowercase hex digits)"}})
		return
	}
	var (
		run *stats.Run
		ok  bool
	)
	if s.lookup != nil {
		run, ok = s.lookup.CachedRun(key)
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, struct {
			Error ErrorBody `json:"error"`
		}{ErrorBody{Kind: KindNotFound, Message: "key not cached on this member"}})
		return
	}
	s.metrics.Add(CounterPeerCacheServed, 1)
	writeJSON(w, http.StatusOK, PeerCacheEntry{Key: key, Run: run})
}
