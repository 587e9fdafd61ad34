// Package runcache persists simulation results in a content-addressed
// on-disk store. Entries are keyed by a SHA-256 over the normalised
// sim.Config plus the simulator behaviour version (sim.BehaviorVersion), so
// a result is reused if and only if it came from an identical simulation of
// an identical simulator. The store is deliberately forgiving: writes are
// atomic (temp file + rename), and any unreadable entry — truncated,
// corrupt, produced by a different simulator version — reads as a miss,
// never as an error.
//
// Cache (cache.go) layers an in-process memoisation map and single-flight
// de-duplication (singleflight.go) over a Store, giving experiment runners
// the full memory → disk → simulate hierarchy.
package runcache

import (
	"encoding/json"
	"errors"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/contentaddr"
	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Key returns the content address of a simulation: hex SHA-256 over the
// normalised Config and sim.BehaviorVersion, plus sim.IntervalVersion for an
// interval run and sim.TraceVersion for an uploaded-trace app (each field
// is omitted otherwise, keeping sequential generated-workload keys
// unchanged). Configs that Run would treat identically (defaulted
// machine/predictor/instruction-count spelled out or left zero) hash
// identically.
func Key(cfg sim.Config) string {
	cfg = cfg.Normalized()
	interval, trace := 0, 0
	if cfg.Intervals > 1 {
		interval = sim.IntervalVersion
	}
	if strings.HasPrefix(cfg.App, sim.TraceAppPrefix) {
		trace = sim.TraceVersion
	}
	payload, err := json.Marshal(struct {
		Version  int        `json:"version"`
		Config   sim.Config `json:"config"`
		Interval int        `json:"interval_version,omitempty"`
		Trace    int        `json:"trace_version,omitempty"`
	}{sim.BehaviorVersion, cfg, interval, trace})
	if err != nil {
		// Config is a plain struct of scalars; Marshal cannot fail on it.
		panic("runcache: marshal config: " + err.Error())
	}
	return contentaddr.Sum(payload)
}

// ValidKey reports whether s has the exact shape Key produces: 64 lowercase
// hex digits. The gate is the shared content-address helper
// (internal/contentaddr) — one definition for every filesystem-facing key
// path, run cache and trace store alike, so no store can diverge into
// accepting a traversal-capable key shape. Every surface that accepts keys
// from the network (the fleet's GET /v1/peer/cache/{key} endpoint) must
// reject anything else before the key gets near the filesystem.
func ValidKey(s string) bool { return contentaddr.Valid(s) }

// Store is a content-addressed directory of simulation results. Layout:
//
//	<dir>/<key[0:2]>/<key>.json
//
// where each file is an entry envelope carrying the version stamp, the key,
// the originating Config (for debugging with plain shell tools) and the
// stats.Run counters. The zero Store is unusable; use NewStore.
//
// The store is best-effort by design: writes that fail (read-only
// directory, full disk) degrade the process to in-memory caching — the
// first failure is logged, every failure bumps CounterDiskWriteErrors, and
// after writeFailLimit consecutive failures the store stops issuing write
// syscalls entirely. A failed or skipped write never fails a run.
type Store struct {
	dir     string
	metrics atomic.Pointer[stats.Metrics]
	logOnce sync.Once
	// writeFails counts consecutive Put failures; at writeFailLimit the
	// store gives up on persistence (degraded) until the process restarts.
	writeFails atomic.Uint32
	degraded   atomic.Bool

	// Disk-tier garbage collection (gc.go): maxBytes caps the store's total
	// entry bytes (0 = unbounded), estBytes tracks the running estimate that
	// triggers a sweep, gcMu serialises sweeps.
	maxBytes atomic.Int64
	estBytes atomic.Int64
	gcMu     sync.Mutex
}

// writeFailLimit is the consecutive-write-failure budget before the store
// declares the directory unusable and stops trying.
const writeFailLimit = 4

// NewStore returns a store rooted at dir. The directory is created lazily
// on first Put, so opening a store never fails and a read-only consumer of
// a missing directory simply sees misses.
func NewStore(dir string) *Store { return &Store{dir: dir} }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetMetrics points the store's counters (write errors, corrupt entries)
// at a registry. Safe to call concurrently with use; nil detaches.
func (s *Store) SetMetrics(m *stats.Metrics) { s.metrics.Store(m) }

// Degraded reports whether the store has given up on persistent writes
// after repeated failures.
func (s *Store) Degraded() bool { return s.degraded.Load() }

func (s *Store) count(name string) {
	if m := s.metrics.Load(); m != nil {
		m.Add(name, 1)
	}
}

// entry is the on-disk envelope of one cached run.
type entry struct {
	Version int        `json:"version"`
	Key     string     `json:"key"`
	Config  sim.Config `json:"config"`
	Run     *stats.Run `json:"run"`
}

// path maps a key to its shard file.
func (s *Store) path(key string) string {
	if len(key) < 2 {
		return filepath.Join(s.dir, key+".json")
	}
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get loads the run stored under key. Every failure mode — missing file,
// truncated or corrupt JSON, a stamp from another simulator version, an
// envelope whose key does not match its address — is a miss, never an
// error: the caller falls back to simulating. Detected corruption (vs a
// merely stale version stamp) bumps CounterDiskCorrupt.
func (s *Store) Get(key string) (*stats.Run, bool) {
	slowDisk(key)
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	if p := faultinject.Active(); p != nil && p.Should(faultinject.FaultCorrupt, key) && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0xff
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		s.count(CounterDiskCorrupt)
		return nil, false
	}
	if e.Version != sim.BehaviorVersion {
		return nil, false // stale simulator version: a plain miss
	}
	if e.Key != key || e.Run == nil {
		s.count(CounterDiskCorrupt)
		return nil, false
	}
	return e.Run, true
}

// errInjectedWrite marks a fault-injected write failure (chaos tests).
var errInjectedWrite = errors.New("faultinject: injected disk-write failure")

// Put stores run under key atomically: the envelope is written to a
// temporary file in the destination directory and renamed into place, so a
// crashed or concurrent writer can leave behind at worst a stale temp file,
// never a torn entry.
//
// Failures degrade rather than propagate pain: the first is logged, each
// bumps CounterDiskWriteErrors, and writeFailLimit consecutive failures
// switch the store to memory-only (no further write attempts). The error is
// still returned for observability, but callers treat persistence as
// best-effort and never fail a run on it.
func (s *Store) Put(key string, cfg sim.Config, run *stats.Run) error {
	if s.degraded.Load() {
		return nil // persistence disabled after repeated failures
	}
	n, err := s.put(key, cfg, run)
	if err == nil {
		s.writeFails.Store(0)
		s.wrote(n)
		return nil
	}
	s.count(CounterDiskWriteErrors)
	s.logOnce.Do(func() {
		log.Printf("runcache: persistent cache write failed, runs still served from memory (dir %s): %v", s.dir, err)
	})
	if s.writeFails.Add(1) >= writeFailLimit && !s.degraded.Swap(true) {
		log.Printf("runcache: disabling persistent cache writes after %d consecutive failures", writeFailLimit)
	}
	return err
}

// slowDisk injects FaultSlowDisk's per-operation stall when the active chaos
// plan says the fault fires for key. Slow disks cost latency, not
// correctness, so both Get and put pay it before touching the filesystem.
func slowDisk(key string) {
	if p := faultinject.Active(); p != nil && p.Should(faultinject.FaultSlowDisk, key) {
		time.Sleep(faultinject.SlowDiskDelay)
	}
}

// put writes one entry and returns the bytes written (for the GC's running
// size estimate).
func (s *Store) put(key string, cfg sim.Config, run *stats.Run) (int64, error) {
	slowDisk(key)
	if p := faultinject.Active(); p != nil && p.Should(faultinject.FaultDiskWrite, key) {
		return 0, errInjectedWrite
	}
	data, err := json.MarshalIndent(entry{
		Version: sim.BehaviorVersion,
		Key:     key,
		Config:  cfg.Normalized(),
		Run:     run,
	}, "", "\t")
	if err != nil {
		return 0, err
	}
	if err := atomicfile.Write(s.path(key), append(data, '\n')); err != nil {
		return 0, err
	}
	return int64(len(data)) + 1, nil
}
