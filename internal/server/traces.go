// Multi-tenant trace ingestion: the serving surface over internal/tracestore
// that turns phastd into bring-your-own-workload as a service.
//
//   - POST /v1/traces streams an encoded trace (internal/trace wire format)
//     through validation into the content-addressed store and answers with
//     the canonical digest; the client then runs it from any fleet member
//     with Config.App = "trace:<digest>".
//   - Tenancy rides the X-Phast-Tenant header. It never enters sim.Config —
//     a run's cache key must not depend on who asked — but it does bound the
//     tenant's stored trace bytes (tracestore quota → 429), its in-flight
//     requests on this member (Options.TenantMaxInflight → 429), and its
//     share of the runner's weighted-fair worker pool (experiments.WithTenant).
//   - GET /v1/results?tenant=... pages through the tenant's persistent run
//     log (every /v1/runs and /v1/batch outcome is appended at serve time).
//   - The fleet tier: GET/PUT /v1/peer/trace/{digest} serve and accept
//     canonical trace bytes between members; an upload is replicated to the
//     digest's ring owner, and TraceFetch (the runner's TraceResolver) pulls
//     a digest this member has never seen from the ring's candidates — so a
//     trace uploaded anywhere is runnable everywhere.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/contentaddr"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// TenantHeader names the HTTP header carrying the caller's tenant identity.
// Absent means tracestore.DefaultTenant; present it must satisfy
// tracestore.ValidTenant or the request is a 400.
const TenantHeader = "X-Phast-Tenant"

// Trace-serving counters, alongside the tracestore.* set the store itself
// maintains.
const (
	// CounterTraceUploads counts accepted POST /v1/traces requests
	// (duplicates included — the client still got its digest).
	CounterTraceUploads = "server.trace.uploads"
	// CounterPeerTraceServed counts GET /v1/peer/trace hits served to other
	// members.
	CounterPeerTraceServed = "server.peer.trace.served"
	// CounterTraceReplicated counts uploads successfully pushed to the
	// digest's ring owner; CounterTraceReplErrors the pushes that failed
	// (best-effort: the upload still succeeds, TraceFetch's live-member
	// sweep makes the trace reachable regardless).
	CounterTraceReplicated = "server.trace.replicated"
	CounterTraceReplErrors = "server.trace.replicate.errors"
	// CounterTraceFetched counts traces pulled from a fleet peer on a local
	// store miss (the TraceFetch path).
	CounterTraceFetched = "server.trace.fetched"
)

// tenantOf extracts and validates the request's tenant identity.
func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		return tracestore.DefaultTenant, nil
	}
	if !tracestore.ValidTenant(t) {
		return "", fmt.Errorf("invalid %s header %q (want 1-64 chars [a-zA-Z0-9._-], starting alphanumeric)", TenantHeader, t)
	}
	return t, nil
}

// tenantAdmit charges one in-flight request against tenant's cap, returning
// the release func, or ErrTenantBusy when the tenant is already at
// Options.TenantMaxInflight on this member. Unlimited (and free) when the
// cap is unset.
func (s *Server) tenantAdmit(tenant string) (func(), error) {
	if s.opt.TenantMaxInflight <= 0 {
		return func() {}, nil
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if s.tinflight[tenant] >= s.opt.TenantMaxInflight {
		s.metrics.Add(stats.TenantCounter(tenant, "rejected"), 1)
		return nil, fmt.Errorf("%w: %d in flight on this member (cap %d)",
			ErrTenantBusy, s.tinflight[tenant], s.opt.TenantMaxInflight)
	}
	s.tinflight[tenant]++
	return func() {
		s.tmu.Lock()
		if s.tinflight[tenant]--; s.tinflight[tenant] <= 0 {
			delete(s.tinflight, tenant)
		}
		s.tmu.Unlock()
	}, nil
}

// handleTraceUpload serves POST /v1/traces: stream → validate → store →
// digest. The store enforces the per-trace byte cap (413) and the tenant's
// stored-bytes quota (429); a malformed stream is a 400 with nothing
// written. A fresh upload is then replicated, best-effort, to the digest's
// ring owner so the common fetch path finds it in one hop.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	if s.Draining() {
		s.refuse(w)
		return
	}
	if s.store == nil {
		writeError(w, fmt.Errorf("%w: this member has no trace store", tracestore.ErrNotFound))
		return
	}
	tenant, terr := tenantOf(r)
	if terr != nil {
		writeJSON(w, http.StatusBadRequest, errorResponseBody(ErrorBody{
			Kind: KindBadRequest, Message: terr.Error()}))
		return
	}
	res, err := s.store.Put(tenant, r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	s.metrics.Add(CounterTraceUploads, 1)
	s.metrics.Add(stats.TenantCounter(tenant, "uploads"), 1)
	if !res.Dup {
		s.replicateTrace(r.Context(), res.Digest)
	}
	writeJSON(w, http.StatusOK, TraceUploadResponse{
		Digest: res.Digest, Bytes: res.Bytes, Insts: res.Insts, Dup: res.Dup,
	})
}

// handleTraceGet serves GET /v1/traces/{digest}: the canonical bytes of a
// stored trace. Mostly a debugging/verification surface (the smoke test
// checks a replicated trace byte-for-byte); runs reference the digest via
// Config.App and never need to download it.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	digest := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	s.serveTraceBytes(w, digest, "")
}

// handlePeerTrace serves the fleet's internal trace exchange:
// GET /v1/peer/trace/{digest} returns this member's canonical bytes (404 on
// a miss — the fetcher tries its next candidate), PUT accepts canonical
// bytes pushed by the member that ingested the upload. The digest is
// validated to the exact 64-hex shape before anything touches the
// filesystem, same contract as the peer cache endpoint; a PUT body is
// re-hashed and re-decoded by the store, so a corrupt or lying push is
// rejected, never stored.
func (s *Server) handlePeerTrace(w http.ResponseWriter, r *http.Request) {
	digest := strings.TrimPrefix(r.URL.Path, "/v1/peer/trace/")
	switch r.Method {
	case http.MethodGet:
		s.serveTraceBytes(w, digest, CounterPeerTraceServed)
	case http.MethodPut:
		if !contentaddr.Valid(digest) {
			writeJSON(w, http.StatusBadRequest, errorResponseBody(ErrorBody{
				Kind: KindBadRequest, Message: "malformed trace digest (want 64 lowercase hex digits)"}))
			return
		}
		if s.store == nil {
			writeError(w, fmt.Errorf("%w: this member has no trace store", tracestore.ErrNotFound))
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.store.MaxTraceBytes()+1))
		if err != nil {
			writeError(w, fmt.Errorf("%w: replica push body over the per-trace cap", tracestore.ErrTooLarge))
			return
		}
		if err := s.store.PutCanonical(digest, data); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		methodNotAllowed(w, "GET, PUT")
	}
}

// serveTraceBytes is the shared read side of both trace-download endpoints;
// a non-empty hitCounter is bumped on each hit served.
func (s *Server) serveTraceBytes(w http.ResponseWriter, digest, hitCounter string) {
	if !contentaddr.Valid(digest) {
		writeJSON(w, http.StatusBadRequest, errorResponseBody(ErrorBody{
			Kind: KindBadRequest, Message: "malformed trace digest (want 64 lowercase hex digits)"}))
		return
	}
	if s.store == nil {
		writeError(w, fmt.Errorf("%w: this member has no trace store", tracestore.ErrNotFound))
		return
	}
	data, err := s.store.Get(digest)
	if err != nil {
		writeError(w, err)
		return
	}
	if hitCounter != "" {
		s.metrics.Add(hitCounter, 1)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// handleResults serves GET /v1/results?tenant=&after=&limit=: one page of
// the tenant's persistent run log. The tenant may come from the query or the
// X-Phast-Tenant header (query wins); pagination is by sequence cursor —
// pass the response's next back as after.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	if s.results == nil {
		writeError(w, fmt.Errorf("%w: this member keeps no results log", tracestore.ErrNotFound))
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		var terr error
		if tenant, terr = tenantOf(r); terr != nil {
			writeJSON(w, http.StatusBadRequest, errorResponseBody(ErrorBody{
				Kind: KindBadRequest, Message: terr.Error()}))
			return
		}
	}
	after, limit := int64(0), 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponseBody(ErrorBody{
				Kind: KindBadRequest, Message: "after must be a non-negative integer"}))
			return
		}
		after = n
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponseBody(ErrorBody{
				Kind: KindBadRequest, Message: "limit must be a non-negative integer"}))
			return
		}
		limit = n
	}
	entries, err := s.results.List(tenant, after, limit)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponseBody(ErrorBody{
			Kind: KindBadRequest, Message: err.Error()}))
		return
	}
	resp := ResultsResponse{Tenant: tenant, Results: entries}
	if len(entries) > 0 {
		resp.Next = entries[len(entries)-1].Seq
	}
	writeJSON(w, http.StatusOK, resp)
}

// recordResult appends one externally-requested run outcome to the tenant's
// persistent log. Capacity rejections (429/503: the run never started) are
// not outcomes and are skipped — a throttled tenant must not fill its own
// log with rejection rows. Best-effort: a full disk must not fail the run
// that already succeeded.
func (s *Server) recordResult(tenant string, row RunResult) {
	if s.results == nil {
		return
	}
	if row.Error != nil {
		switch row.Error.Kind {
		case KindRejected, KindDraining, KindQuotaExceeded:
			return
		}
	}
	if _, err := s.results.Append(tenant, row); err == nil {
		s.metrics.Add(stats.TenantCounter(tenant, "results"), 1)
	}
}

// replicateTrace pushes a freshly ingested trace to its digest's ring owner
// so the common TraceFetch path (ring candidates first) finds it in one hop.
// Best-effort and synchronous: a failed push only costs a counter — the
// fetch path's live-member sweep still reaches the copy this member holds.
func (s *Server) replicateTrace(ctx context.Context, digest string) {
	if s.fleet == nil || s.peers == nil {
		return
	}
	owner := s.fleet.Owner(digest)
	if owner == s.fleet.Self() {
		return
	}
	data, err := s.store.Get(digest)
	if err != nil {
		return // raced with eviction/corruption: the fetch path re-derives
	}
	if err := s.peers.pushTrace(ctx, owner, digest, data); err != nil {
		s.metrics.Add(CounterTraceReplErrors, 1)
		return
	}
	s.metrics.Add(CounterTraceReplicated, 1)
}

// TraceFetch is the runner's TraceResolver (experiments.Options), consulted
// on a full cache miss for a "trace:<digest>" config whose stream is not in
// the process: local store first, then the fleet — the digest's ring
// candidates (where an upload replicates to), then every other live member
// (uploads whose replication push failed live only on their ingest node).
// A fetched trace is promoted into the local store via PutCanonical (which
// re-hashes and re-decodes — a lying peer cannot poison the store) so the
// next miss is local. Wire it at startup:
//
//	srv := server.New(runner, server.Options{TraceStore: store, ...})
//	runner.SetTraceResolver(srv.TraceFetch)
func (s *Server) TraceFetch(ctx context.Context, digest string) (*trace.Trace, error) {
	if s.store == nil {
		return nil, fmt.Errorf("server: no trace store: %w", sim.ErrTraceUnavailable)
	}
	tr, err := s.store.Trace(digest)
	if err == nil {
		return tr, nil
	}
	if !errors.Is(err, tracestore.ErrNotFound) {
		return nil, err
	}
	if s.peers == nil {
		return nil, fmt.Errorf("server: trace %s not in the local store: %w", digest, sim.ErrTraceUnavailable)
	}
	for _, from := range s.traceCandidates(digest) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		data, ok, ferr := s.peers.fetchTrace(ctx, from, digest)
		if ferr != nil || !ok {
			continue
		}
		if err := s.store.PutCanonical(digest, data); err != nil {
			continue // corrupt/lying peer: try the next one
		}
		s.metrics.Add(CounterTraceFetched, 1)
		return s.store.Trace(digest)
	}
	return nil, fmt.Errorf("server: trace %s not found on any live member: %w", digest, sim.ErrTraceUnavailable)
}

// traceCandidates orders the members worth asking for digest: the ring
// candidates first (the replication target and its successor), then the
// remaining live members, self excluded. Down members are in neither list.
func (s *Server) traceCandidates(digest string) []string {
	seen := map[string]bool{s.fleet.Self(): true}
	var out []string
	add := func(members []string) {
		for _, m := range members {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	add(s.fleet.FetchCandidates(digest, peerFetchCandidates))
	add(s.fleet.LiveMembers())
	return out
}

// fetchTrace asks one member for its canonical bytes under digest. Returns
// (data, true, nil) on a hit, (nil, false, nil) on a clean 404 miss, an
// error otherwise. The caller verifies the bytes via PutCanonical.
func (p *peerClient) fetchTrace(ctx context.Context, from, digest string) ([]byte, bool, error) {
	fctx, cancel := context.WithTimeout(ctx, 2*p.s.opt.PeerFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet,
		from+"/v1/peer/trace/"+digest, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := p.send(ctx, req, from, digest)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		max := p.s.store.MaxTraceBytes()
		data, err := io.ReadAll(io.LimitReader(resp.Body, max+1))
		if err != nil {
			return nil, false, fmt.Errorf("server: read trace %s from %s: %w", digest, from, err)
		}
		if int64(len(data)) > max {
			return nil, false, fmt.Errorf("server: peer %s served trace %s over the per-trace cap", from, digest)
		}
		return data, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("server: peer %s trace fetch: %s", from, resp.Status)
	}
}

// pushTrace PUTs canonical trace bytes to another member (the replication
// hop after an upload), within the same budget as a trace fetch.
func (p *peerClient) pushTrace(ctx context.Context, to, digest string, data []byte) error {
	pctx, cancel := context.WithTimeout(ctx, 2*p.s.opt.PeerFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPut,
		to+"/v1/peer/trace/"+digest, strings.NewReader(string(data)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.send(ctx, req, to, digest)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: peer %s refused trace replica: %s", to, resp.Status)
	}
	return nil
}

// errorResponseBody wraps an ErrorBody in the {"error": ...} envelope every
// error response uses.
func errorResponseBody(b ErrorBody) any {
	return struct {
		Error ErrorBody `json:"error"`
	}{b}
}
