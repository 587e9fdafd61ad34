package experiments

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestRunnerSingleFlightUnderContention hammers one Runner from many
// goroutines requesting overlapping keys and asserts each unique key
// simulated exactly once: the single-flight layer must coalesce concurrent
// first requests, the memoisation layer everything after. Run under
// `go test -race` (make check does) this doubles as the Runner's data-race
// detector.
func TestRunnerSingleFlightUnderContention(t *testing.T) {
	m := stats.NewMetrics()
	r := NewRunner(Options{
		Apps:         []string{"511.povray", "519.lbm"},
		Instructions: 10_000,
		Workers:      4,
		Metrics:      m,
	})
	defer r.Close()

	type key struct {
		app, pred string
	}
	keys := []key{
		{"511.povray", "none"},
		{"511.povray", "alwayswait"},
		{"519.lbm", "none"},
		{"519.lbm", "alwayswait"},
	}

	const hammers = 24
	results := make([][]*stats.Run, hammers)
	errs := make([]error, hammers)
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]*stats.Run, len(keys))
			for i := range keys {
				// Vary the request order per goroutine to mix contention.
				k := keys[(i+g)%len(keys)]
				run, err := runOne(r, sim.Config{App: k.app, Predictor: k.pred})
				if err != nil {
					errs[g] = err
					return
				}
				got[(i+g)%len(keys)] = run
			}
			results[g] = got
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if sims := m.Get(runcache.CounterRunsSimulated); sims != uint64(len(keys)) {
		t.Errorf("simulated %d runs for %d unique keys; single-flight broken:\n%s",
			sims, len(keys), m)
	}
	// Memoisation must hand every requester the same *stats.Run per key.
	for g := 1; g < hammers; g++ {
		for i := range keys {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d key %d got a different run pointer", g, i)
			}
		}
	}
}

// TestRunnerDiskCacheAcrossRunners is the acceptance criterion in miniature:
// a second runner over the same cache directory regenerates a figure
// byte-identically with zero new simulations.
func TestRunnerDiskCacheAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	render := func(m *stats.Metrics) string {
		var buf bytes.Buffer
		r := NewRunner(Options{
			Apps:         []string{"511.povray", "519.lbm"},
			Instructions: 20_000,
			Out:          &buf,
			CacheDir:     dir,
			Metrics:      m,
		})
		defer r.Close()
		e, err := ByName("fig12")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(r); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	m1 := stats.NewMetrics()
	first := render(m1)
	if m1.Get(runcache.CounterRunsSimulated) == 0 {
		t.Fatal("first pass should simulate")
	}

	m2 := stats.NewMetrics()
	second := render(m2)
	if sims := m2.Get(runcache.CounterRunsSimulated); sims != 0 {
		t.Errorf("second pass simulated %d runs, want 0 (all from disk):\n%s", sims, m2)
	}
	if first != second {
		t.Errorf("cached regeneration is not byte-identical:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestRunnerCloseIdempotent guards the worker-pool lifecycle.
func TestRunnerCloseIdempotent(t *testing.T) {
	r := NewRunner(Options{Apps: []string{"511.povray"}, Instructions: 5_000})
	if _, err := runOne(r, sim.Config{App: "511.povray", Predictor: "none"}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // second close must not panic
}
