// Package tracestore persists uploaded micro-op traces in a
// content-addressed on-disk store, the ingestion side of the
// bring-your-own-workload service. Every upload is streamed through the
// fuzz-hardened binary decoder (trace.Decode), re-encoded canonically, and
// addressed by the SHA-256 of the canonical bytes — so the digest names the
// *stream*, not whatever byte-level encoding the uploader produced, and two
// encodings of the same trace land on one stored entry.
//
// Tenancy: each stored trace is charged once against the stored-bytes quota
// of every tenant that uploaded it (the payload itself is shared). Tenants
// are directory names; ValidTenant gates them the way contentaddr.Valid
// gates digests, so no network-supplied identity can traverse paths.
//
// Layout:
//
//	<dir>/traces/<digest[0:2]>/<digest>.mdpt    canonical trace bytes
//	<dir>/tenants/<tenant>/<digest>.json        ownership + charged bytes
//
// Writes are atomic (temp file + rename, like runcache): a crashed writer
// leaves at worst a stale temp file, never a torn trace. Reads re-hash the
// payload: a corrupt entry reads as missing, so the fleet's peer-fetch tier
// can repair it, never silently feed a damaged stream to the simulator.
package tracestore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/atomicfile"
	"repro/internal/contentaddr"
	"repro/internal/memo"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Typed failures of the ingestion path. The server maps these onto the wire
// taxonomy: ErrTooLarge → 413, ErrQuota → 429, FormatError → 400,
// ErrNotFound → 404.
var (
	ErrTooLarge = errors.New("tracestore: trace exceeds the per-upload size cap")
	ErrQuota    = errors.New("tracestore: tenant stored-bytes quota exceeded")
	ErrNotFound = errors.New("tracestore: trace not found")
)

// FormatError wraps a trace.Decode failure on an upload: the payload is not
// a well-formed MDPT stream. It is the caller's mistake (HTTP 400), not the
// store's.
type FormatError struct{ Err error }

func (e *FormatError) Error() string { return "tracestore: invalid trace: " + e.Err.Error() }
func (e *FormatError) Unwrap() error { return e.Err }

// Defaults for Options left zero.
const (
	// DefaultMaxTraceBytes caps one upload (and one stored canonical
	// payload). 64 MiB of varint-packed stream is tens of millions of
	// micro-ops — far past the default simulation length.
	DefaultMaxTraceBytes = 64 << 20
	// DefaultTenantQuotaBytes caps one tenant's total stored canonical
	// bytes.
	DefaultTenantQuotaBytes = 256 << 20
)

// Options configures a Store.
type Options struct {
	// MaxTraceBytes caps a single upload's size, both as received and after
	// canonical re-encoding. 0 means DefaultMaxTraceBytes.
	MaxTraceBytes int64
	// TenantQuotaBytes caps a tenant's total stored canonical bytes across
	// uploads. 0 means DefaultTenantQuotaBytes; negative means unlimited.
	TenantQuotaBytes int64
}

// Store is the content-addressed trace directory. The zero Store is
// unusable; use New. All methods are safe for concurrent use.
type Store struct {
	dir         string
	maxTrace    int64
	tenantQuota int64
	metrics     atomic.Pointer[stats.Metrics]

	// mu serialises quota accounting and the usage cache. Holding it across
	// the (small) manifest writes keeps check-then-charge atomic.
	mu    sync.Mutex
	usage map[string]int64 // tenant -> charged bytes, lazily loaded from disk

	// traces interns decoded traces, so repeated runs by digest share one
	// immutable *trace.Trace (and its prefix structures) instead of
	// re-decoding per run. New bounds it at 16; a full scenario mix over
	// uploaded traces stays far below that.
	traces *memo.Cache[string, *trace.Trace]
}

// Counter names bumped on a registry attached via SetMetrics.
const (
	CounterPuts       = "tracestore.puts"
	CounterPutBytes   = "tracestore.put_bytes"
	CounterDupPuts    = "tracestore.dup_puts"
	CounterTooLarge   = "tracestore.rejected_too_large"
	CounterQuota      = "tracestore.rejected_quota"
	CounterBadTrace   = "tracestore.rejected_bad_trace"
	CounterCorrupt    = "tracestore.corrupt"
	CounterReplicated = "tracestore.replicated"
	CounterInternHits = "tracestore.intern_hits"
	CounterInternMiss = "tracestore.intern_misses"
)

// New returns a store rooted at dir. Directories are created lazily on
// first write, so opening a store never fails.
func New(dir string, opt Options) *Store {
	if opt.MaxTraceBytes == 0 {
		opt.MaxTraceBytes = DefaultMaxTraceBytes
	}
	switch {
	case opt.TenantQuotaBytes == 0:
		opt.TenantQuotaBytes = DefaultTenantQuotaBytes
	case opt.TenantQuotaBytes < 0:
		opt.TenantQuotaBytes = 1<<63 - 1
	}
	return &Store{dir: dir, maxTrace: opt.MaxTraceBytes, tenantQuota: opt.TenantQuotaBytes,
		usage: map[string]int64{}, traces: memo.New[string, *trace.Trace](16)}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// MaxTraceBytes returns the per-upload size cap.
func (s *Store) MaxTraceBytes() int64 { return s.maxTrace }

// TenantQuotaBytes returns the per-tenant stored-bytes quota.
func (s *Store) TenantQuotaBytes() int64 { return s.tenantQuota }

// SetMetrics points the store's counters at a registry. Safe to call
// concurrently with use; nil detaches.
func (s *Store) SetMetrics(m *stats.Metrics) { s.metrics.Store(m) }

func (s *Store) count(name string, delta uint64) {
	if m := s.metrics.Load(); m != nil {
		m.Add(name, delta)
	}
}

func (s *Store) tracePath(digest string) string {
	return filepath.Join(s.dir, "traces", digest[:2], digest+".mdpt")
}

func (s *Store) ownerPath(tenant, digest string) string {
	return filepath.Join(s.dir, "tenants", tenant, digest+".json")
}

// PutResult describes one accepted upload.
type PutResult struct {
	// Digest is the content address of the canonical encoding: the name the
	// trace is runnable under ("trace:<digest>").
	Digest string `json:"digest"`
	// Bytes is the stored canonical payload size (what the tenant's quota
	// was charged).
	Bytes int64 `json:"bytes"`
	// Insts is the stream length in micro-ops.
	Insts int `json:"insts"`
	// Dup reports that this tenant had already stored this trace; nothing
	// was charged.
	Dup bool `json:"dup,omitempty"`
}

// Put ingests one uploaded trace for a tenant: size-cap the stream, decode
// it (validation), re-encode canonically, charge the tenant's quota, and
// store the canonical bytes content-addressed. Failures are typed:
// ErrTooLarge, *FormatError, ErrQuota. On any failure nothing is stored and
// nothing is charged — there are no partial writes to roll back because the
// payload is validated entirely in memory before the first filesystem write.
func (s *Store) Put(tenant string, r io.Reader) (PutResult, error) {
	if !ValidTenant(tenant) {
		return PutResult{}, fmt.Errorf("tracestore: invalid tenant %q", tenant)
	}
	raw, err := io.ReadAll(io.LimitReader(r, s.maxTrace+1))
	if err != nil {
		return PutResult{}, fmt.Errorf("tracestore: reading upload: %w", err)
	}
	if int64(len(raw)) > s.maxTrace {
		s.count(CounterTooLarge, 1)
		return PutResult{}, ErrTooLarge
	}
	tr, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		s.count(CounterBadTrace, 1)
		return PutResult{}, &FormatError{Err: err}
	}
	canon, digest, err := Canonical(tr)
	if err != nil {
		return PutResult{}, err
	}
	size := int64(len(canon))
	if size > s.maxTrace {
		s.count(CounterTooLarge, 1)
		return PutResult{}, ErrTooLarge
	}
	res := PutResult{Digest: digest, Bytes: size, Insts: tr.Len()}

	s.mu.Lock()
	defer s.mu.Unlock()
	used, err := s.usageLocked(tenant)
	if err != nil {
		return PutResult{}, err
	}
	if _, err := os.Stat(s.ownerPath(tenant, digest)); err == nil {
		res.Dup = true
		s.count(CounterDupPuts, 1)
		return res, nil
	}
	if used+size > s.tenantQuota {
		s.count(CounterQuota, 1)
		return PutResult{}, fmt.Errorf("%w (used %d + %d > %d)", ErrQuota, used, size, s.tenantQuota)
	}
	if err := s.writeTrace(digest, canon); err != nil {
		return PutResult{}, err
	}
	manifest := fmt.Sprintf("{\"digest\":%q,\"bytes\":%d}\n", digest, size)
	if err := atomicfile.Write(s.ownerPath(tenant, digest), []byte(manifest)); err != nil {
		return PutResult{}, err
	}
	s.usage[tenant] = used + size
	s.count(CounterPuts, 1)
	s.count(CounterPutBytes, uint64(size))
	return res, nil
}

// Canonical returns a stream's canonical encoding and its content address,
// the SHA-256 of those bytes: the name the stream runs under as
// "trace:<digest>". Encode is deterministic, so the digest names the
// decoded stream however it was packed on the wire or on disk; hashing
// uploaded bytes directly would give one stream two addresses.
func Canonical(tr *trace.Trace) (data []byte, digest string, err error) {
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return nil, "", fmt.Errorf("tracestore: canonical encode: %w", err)
	}
	return buf.Bytes(), contentaddr.Sum(buf.Bytes()), nil
}

// PutCanonical stores already-canonical trace bytes under their claimed
// digest — the fleet replication path (a peer pushing or this node pulling
// a trace it does not own). The bytes are re-hashed and decode-validated;
// no tenant is charged. Storing an already-present digest is a no-op.
func (s *Store) PutCanonical(digest string, data []byte) error {
	if !contentaddr.Valid(digest) {
		return fmt.Errorf("tracestore: invalid digest %q", digest)
	}
	if int64(len(data)) > s.maxTrace {
		s.count(CounterTooLarge, 1)
		return ErrTooLarge
	}
	if got := contentaddr.Sum(data); got != digest {
		s.count(CounterCorrupt, 1)
		return fmt.Errorf("tracestore: payload hashes to %s, not claimed digest %s", got, digest)
	}
	if _, err := trace.Decode(bytes.NewReader(data)); err != nil {
		s.count(CounterBadTrace, 1)
		return &FormatError{Err: err}
	}
	if _, err := os.Stat(s.tracePath(digest)); err == nil {
		return nil
	}
	if err := s.writeTrace(digest, data); err != nil {
		return err
	}
	s.count(CounterReplicated, 1)
	return nil
}

// writeTrace persists canonical bytes atomically (temp + rename). Already
// present entries are left alone: content addressing makes overwrites
// pointless.
func (s *Store) writeTrace(digest string, data []byte) error {
	dst := s.tracePath(digest)
	if _, err := os.Stat(dst); err == nil {
		return nil
	}
	return atomicfile.Write(dst, data)
}

// Get returns the canonical bytes stored under digest. A missing entry is
// ErrNotFound; so is a corrupt one (payload no longer hashing to its
// address) — the caller falls back to the peer tier, which can repair it.
func (s *Store) Get(digest string) ([]byte, error) {
	if !contentaddr.Valid(digest) {
		return nil, fmt.Errorf("tracestore: invalid digest %q", digest)
	}
	data, err := os.ReadFile(s.tracePath(digest))
	if err != nil {
		return nil, ErrNotFound
	}
	if contentaddr.Sum(data) != digest {
		s.count(CounterCorrupt, 1)
		return nil, ErrNotFound
	}
	return data, nil
}

// Has reports whether digest is stored locally (without reading the
// payload).
func (s *Store) Has(digest string) bool {
	if !contentaddr.Valid(digest) {
		return false
	}
	_, err := os.Stat(s.tracePath(digest))
	return err == nil
}

// Trace returns the decoded stream stored under digest, interned so
// concurrent and repeated runs share one immutable *trace.Trace. A failed
// read or decode is not interned, so a later call retries after the peer
// tier repairs the store.
func (s *Store) Trace(digest string) (*trace.Trace, error) {
	tr, hit, err := s.traces.Get(digest, func() (*trace.Trace, error) {
		data, err := s.Get(digest)
		if err != nil {
			return nil, err
		}
		return trace.Decode(bytes.NewReader(data))
	})
	if hit {
		s.count(CounterInternHits, 1)
	} else {
		s.count(CounterInternMiss, 1)
	}
	return tr, err
}

// TenantUsage returns a tenant's charged stored bytes.
func (s *Store) TenantUsage(tenant string) (int64, error) {
	if !ValidTenant(tenant) {
		return 0, fmt.Errorf("tracestore: invalid tenant %q", tenant)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usageLocked(tenant)
}

// usageLocked returns the tenant's charged bytes, scanning the on-disk
// manifests on first touch (so a restarted node keeps enforcing quotas).
func (s *Store) usageLocked(tenant string) (int64, error) {
	if used, ok := s.usage[tenant]; ok {
		return used, nil
	}
	var used int64
	entries, err := os.ReadDir(filepath.Join(s.dir, "tenants", tenant))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			s.usage[tenant] = 0
			return 0, nil
		}
		return 0, err
	}
	for _, ent := range entries {
		digest, ok := strings.CutSuffix(ent.Name(), ".json")
		if !ok || !contentaddr.Valid(digest) {
			continue // stray temp file or foreign junk
		}
		// Charge the actual stored payload size; the manifest is only a
		// marker. A manifest whose trace vanished charges nothing.
		if fi, err := os.Stat(s.tracePath(digest)); err == nil {
			used += fi.Size()
		}
	}
	s.usage[tenant] = used
	return used, nil
}
