package experiments

// Memory regression tests: results returned by the pipeline must not alias
// the simulator (a cached *stats.Run once retained the whole Core — trace,
// ROB and prefix arrays — which scaled to gigabytes across an experiment
// matrix).

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/sim"
)

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func TestMemoryGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression checks are not for -short")
	}
	apps := []string{"511.povray", "502.gcc_1", "519.lbm", "505.mcf"}
	base := heapMB()
	for step, pred := range []string{"ideal", "phast", "storesets", "nosq", "unlimited-phast"} {
		for _, app := range apps {
			if _, err := sim.Run(sim.Config{App: app, Predictor: pred, Instructions: 150000}); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("step %d (%s): heap %.1f MB", step, pred, heapMB())
	}
	_ = io.Discard
	if grew := heapMB() - base; grew > 120 {
		t.Errorf("heap grew by %.1f MB across 20 sequential runs", grew)
	}
}

func TestMemoryGrowthRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression checks are not for -short")
	}
	r := NewRunner(Options{
		Apps:         []string{"511.povray", "502.gcc_1", "519.lbm", "505.mcf"},
		Instructions: 150000,
		Out:          io.Discard,
	})
	base := heapMB()
	for _, pred := range []string{"ideal", "phast", "storesets", "nosq", "unlimited-phast"} {
		if _, err := r.RunGrid(Space{Predictors: []string{pred}}.Variants()); err != nil {
			t.Fatal(err)
		}
		t.Logf("%-16s heap %.1f MB", pred, heapMB())
	}
	if grew := heapMB() - base; grew > 120 {
		t.Errorf("runner retained %.1f MB across 20 runs", grew)
	}
}
