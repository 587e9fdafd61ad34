package runcache

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeRun builds a distinguishable Run without simulating.
func fakeRun(app string, cycles uint64) *stats.Run {
	return &stats.Run{App: app, Predictor: "phast", Machine: "alderlake",
		Cycles: cycles, Committed: 2 * cycles, Loads: 7, Stores: 3}
}

func TestKeyNormalization(t *testing.T) {
	bare := sim.Config{App: "511.povray"}
	spelled := sim.Config{
		App: "511.povray", Machine: "alderlake", Predictor: "phast",
		Instructions: sim.DefaultInstructions, BranchPredictor: "tagescl",
	}
	if Key(bare) != Key(spelled) {
		t.Error("defaulted and spelled-out configs must share a key")
	}
	distinct := []sim.Config{
		{App: "519.lbm"},
		{App: "511.povray", Predictor: "storesets"},
		{App: "511.povray", Machine: "nehalem"},
		{App: "511.povray", Instructions: 1234},
		{App: "511.povray", Seed: 42},
		{App: "511.povray", FwdFilterOff: true},
		{App: "511.povray", TrainAtDetect: true},
	}
	seen := map[string]int{Key(bare): -1}
	for i, cfg := range distinct {
		k := Key(cfg)
		if j, dup := seen[k]; dup {
			t.Errorf("configs %d and %d collide on %s", i, j, k)
		}
		seen[k] = i
	}
	// A valid predictor spec keys under its canonical spelling: the bare
	// name for the default argument, else name:<decimal>. An invalid spec
	// keeps its own key, so its error still surfaces when it runs.
	for _, row := range []struct{ spec, canon string }{
		{"phast:0128", "phast"},
		{"phast:+128", "phast"},
		{"phast:", "phast"},
		{"phast:128", "phast"},
		{"phast:0256", "phast:256"},
		{"storesets:8192", "storesets"},
		{"nosq:2048", "nosq"},
	} {
		if Key(sim.Config{App: "x", Predictor: row.spec}) != Key(sim.Config{App: "x", Predictor: row.canon}) {
			t.Errorf("%q must key as %q", row.spec, row.canon)
		}
	}
	if Key(sim.Config{App: "x", Predictor: "phast:bogus"}) == Key(sim.Config{App: "x", Predictor: "phast"}) {
		t.Error(`the invalid spec "phast:bogus" must not key as "phast"`)
	}
	// SVW overrides the forwarding-filter switch; the pair must not split.
	if Key(sim.Config{App: "x", SVWFilter: true}) !=
		Key(sim.Config{App: "x", SVWFilter: true, FwdFilterOff: true}) {
		t.Error("SVWFilter must fold FwdFilterOff into one key")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(t.TempDir())
	cfg := sim.Config{App: "511.povray", Instructions: 1000}
	key := Key(cfg)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store must miss")
	}
	want := fakeRun("511.povray", 500)
	if err := s.Put(key, cfg, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("stored entry must hit")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the run: %+v != %+v", got, want)
	}
	// Atomic write: no temp litter next to the entry.
	files, err := filepath.Glob(filepath.Join(s.Dir(), key[:2], "*.tmp*"))
	if err != nil || len(files) != 0 {
		t.Errorf("temp files left behind: %v (%v)", files, err)
	}
}

// TestStoreCorruption is the table-driven contract of the forgiving reader:
// every damaged entry is a miss, never an error or a wrong result.
func TestStoreCorruption(t *testing.T) {
	cfg := sim.Config{App: "511.povray", Instructions: 1000}
	key := Key(cfg)
	cases := []struct {
		name   string
		damage func(t *testing.T, s *Store, path string)
	}{
		{"truncated file", func(t *testing.T, s *Store, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty file", func(t *testing.T, s *Store, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage bytes", func(t *testing.T, s *Store, path string) {
			if err := os.WriteFile(path, []byte("not json {"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong version stamp", func(t *testing.T, s *Store, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var e entry
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatal(err)
			}
			e.Version = sim.BehaviorVersion + 1
			data, err = json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"key mismatch", func(t *testing.T, s *Store, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var e entry
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatal(err)
			}
			e.Key = strings.Repeat("0", len(e.Key))
			data, err = json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"null run", func(t *testing.T, s *Store, path string) {
			data, err := json.Marshal(entry{Version: sim.BehaviorVersion, Key: key})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s := NewStore(t.TempDir())
			if err := s.Put(key, cfg, fakeRun("511.povray", 500)); err != nil {
				t.Fatal(err)
			}
			c.damage(t, s, s.path(key))
			if run, ok := s.Get(key); ok {
				t.Errorf("damaged entry must miss, got %+v", run)
			}
		})
	}
}

func TestCacheLayering(t *testing.T) {
	dir := t.TempDir()
	m := stats.NewMetrics()
	c := New(NewStore(dir), m)
	cfg := sim.Config{App: "511.povray", Instructions: 1000}

	ctx := context.Background()
	var sims atomic.Uint64
	simulate := func(context.Context) (*stats.Run, error) {
		sims.Add(1)
		return fakeRun("511.povray", 100), nil
	}

	// Miss → simulate → memory hit.
	if _, err := c.GetOrRun(ctx, cfg, simulate); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrRun(ctx, cfg, simulate); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("simulated %d times, want 1", got)
	}
	if m.Get(CounterMemHits) != 1 || m.Get(CounterMisses) != 1 {
		t.Errorf("mem=%d miss=%d, want 1/1", m.Get(CounterMemHits), m.Get(CounterMisses))
	}

	// A fresh cache over the same directory hits disk, not the simulator.
	m2 := stats.NewMetrics()
	c2 := New(NewStore(dir), m2)
	if _, err := c2.GetOrRun(ctx, cfg, simulate); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("disk layer missed: simulated %d times, want 1", got)
	}
	if m2.Get(CounterDiskHits) != 1 {
		t.Errorf("disk hits = %d, want 1", m2.Get(CounterDiskHits))
	}

	// Errors propagate and are not cached.
	boom := errors.New("boom")
	bad := sim.Config{App: "519.lbm", Instructions: 1000}
	fail := func(context.Context) (*stats.Run, error) { return nil, boom }
	if _, err := c.GetOrRun(ctx, bad, fail); !errors.Is(err, boom) {
		t.Fatalf("want propagated error, got %v", err)
	}
	if _, err := c.GetOrRun(ctx, bad, simulate); err != nil {
		t.Fatalf("error must not be cached: %v", err)
	}
}

func TestCacheInMemoryOnly(t *testing.T) {
	c := New(nil, nil)
	cfg := sim.Config{App: "511.povray", Instructions: 1000}
	var sims atomic.Uint64
	simulate := func(context.Context) (*stats.Run, error) {
		sims.Add(1)
		return fakeRun("511.povray", 100), nil
	}
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrRun(context.Background(), cfg, simulate); err != nil {
			t.Fatal(err)
		}
	}
	if sims.Load() != 1 {
		t.Errorf("simulated %d times, want 1", sims.Load())
	}
}

func TestSingleFlight(t *testing.T) {
	var g Group
	var calls, shares atomic.Uint64
	gate := make(chan struct{})
	const waiters = 16
	results := make([]*stats.Run, waiters)
	do := func(i int) {
		run, err, shared := g.Do(context.Background(), "k", func() (*stats.Run, error) {
			calls.Add(1)
			<-gate // hold the flight open while waiters pile up
			return fakeRun("x", 1), nil
		})
		if err != nil {
			t.Error(err)
		}
		if shared {
			shares.Add(1)
		}
		results[i] = run
	}
	var wg sync.WaitGroup
	// Launch the winner first and wait until its flight is in progress, so
	// every later caller finds a flight to join.
	wg.Add(1)
	go func() { defer wg.Done(); do(0) }()
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	for i := 1; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() { defer wg.Done(); do(i) }()
	}
	time.Sleep(50 * time.Millisecond) // let the waiters reach the group
	close(gate)
	wg.Wait()
	// Every caller either executed fn or shared a result; with the flight
	// held open, all waiters coalesce onto the single winner.
	if calls.Load()+shares.Load() != waiters {
		t.Errorf("calls(%d)+shared(%d) != %d", calls.Load(), shares.Load(), waiters)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different result", i)
		}
	}
}

// TestKeySaltsOnlyIntervalRuns pins the key of a sequential config, recorded
// before interval keys gained sim.IntervalVersion, and requires the interval
// spelling of the same config, and an uploaded-trace app's config (salted
// with sim.TraceVersion), to have moved off their earlier keys.
func TestKeySaltsOnlyIntervalRuns(t *testing.T) {
	seq := sim.Config{App: "511.povray", Predictor: "phast", Instructions: 20000}
	if got, want := Key(seq), "16770b66b275cd92bf096a57fc123502810cae97c9c8538e19aa1e1fb86d8c46"; got != want {
		t.Errorf("sequential key changed:\n got  %s\n want %s", got, want)
	}
	par := seq
	par.Intervals = 4
	if got, old := Key(par), "10abe7e8b673aafb465a107e7544908d0e502b7755ff90e9dae5c1d6760d4548"; got == old {
		t.Errorf("interval key %s is still the unsalted one", got)
	}
	tr := seq
	tr.App = sim.TraceAppPrefix + strings.Repeat("ab", 32)
	if got, old := Key(tr), "4fe88aafaa99687050df088dfa8f5f8bc241324066b8e3bf5df84c17f6a424e5"; got == old {
		t.Errorf("trace key %s is still the unsalted one", got)
	}
}
