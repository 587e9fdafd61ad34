package experiments

import (
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// internDelta runs fn and returns how many trace intern misses (decodes)
// and hits it caused. The sim counters are process-cumulative, so only
// deltas are meaningful.
func internDelta(fn func()) (misses, hits uint64) {
	before := stats.NewMetrics()
	sim.PublishMetrics(before)
	b := before.Snapshot()
	fn()
	after := stats.NewMetrics()
	sim.PublishMetrics(after)
	a := after.Snapshot()
	return a[sim.CounterTraceInternMisses] - b[sim.CounterTraceInternMisses],
		a[sim.CounterTraceInternHits] - b[sim.CounterTraceInternHits]
}

var batchShareRuns atomic.Int64

// TestBatchSharesOneTrace: a multi-config batch over one workload decodes
// its stream exactly once — the prewarm pass interns it and every run is a
// hit on the shared trace, regardless of scheduling order.
func TestBatchSharesOneTrace(t *testing.T) {
	// An instruction count no other test (and no earlier -count repetition
	// of this one) uses, so the interned stream cannot pre-exist in sim's
	// process-wide cache.
	n := 23456 + int(batchShareRuns.Add(1))
	r := NewRunner(Options{Apps: []string{"525.x264_3"}, Instructions: n, Workers: 4})
	defer r.Close()
	preds := []string{"phast", "storesets", "nosq", "mdptage", "storevector", "cht", "none", "ideal"}
	misses, hits := internDelta(func() {
		if _, err := r.RunGrid(Space{Predictors: preds}.Variants()); err != nil {
			t.Fatal(err)
		}
	})
	if misses != 1 {
		t.Errorf("batch decoded the trace %d times, want exactly 1", misses)
	}
	if hits < uint64(len(preds)) {
		t.Errorf("only %d intern hits for %d shared-trace runs", hits, len(preds))
	}
}

// TestRunnerIntervalsOption: Options.Intervals flows into every config that
// leaves it unset, and an explicit Intervals wins over it.
func TestRunnerIntervalsOption(t *testing.T) {
	r := NewRunner(Options{Workers: 2, Instructions: 12000, Intervals: 2})
	defer r.Close()
	run, err := runOne(r, sim.Config{App: "519.lbm"})
	if err != nil {
		t.Fatal(err)
	}
	if run.OracleDigest == 0 {
		t.Error("Options.Intervals did not reach the run (no oracle digest)")
	}
	if run.Committed != 12000 {
		t.Errorf("committed %d, want 12000", run.Committed)
	}
	// Explicit Intervals: 1 forces a sequential run despite the option.
	seq, err := runOne(r, sim.Config{App: "519.lbm", Intervals: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.OracleDigest != 0 {
		t.Error("explicit Intervals=1 still ran the interval path")
	}
}
