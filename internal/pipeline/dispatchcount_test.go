package pipeline

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/mdp"
	"repro/internal/trace"
)

// countChecker returns a check, run at the end of a cycle, that the front
// end's running counts match a recount over the stream: decodeHist.Count()
// and fetchStores count the divergent branches and stores before the next
// micro-op to fetch (trace index traceIdx(tailSeq)), every in-flight entry
// holds the micro-op at its trace index traceIdx(seq), and every in-flight
// load's branchCount/storeCount and store's branchCount/storeIndex count
// those before that index. Entries keep their counts from dispatch on, and
// commit precedes fetch within a cycle, so checking every in-flight entry at
// each cycle's end checks every dispatch, re-dispatches after a squash
// included.
func countChecker(t *testing.T, c *Core, tr *trace.Trace) func() {
	div := make([]uint64, tr.Len()+1)
	st := make([]uint64, tr.Len()+1)
	for i := range tr.Insts {
		div[i+1], st[i+1] = div[i], st[i]
		if tr.Insts[i].Divergent() {
			div[i+1]++
		}
		if tr.Insts[i].IsStore() {
			st[i+1]++
		}
	}
	return func() {
		t.Helper()
		next := c.traceIdx(c.tailSeq)
		if got, want := c.decodeHist.Count(), div[next]; got != want {
			t.Fatalf("cycle %d: decode history counts %d divergent branches before index %d, want %d", c.cycle, got, next, want)
		}
		if got, want := c.fetchStores, st[next]; got != want {
			t.Fatalf("cycle %d: front end counts %d stores before index %d, want %d", c.cycle, got, next, want)
		}
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			e := c.entry(seq)
			i := c.traceIdx(seq)
			switch {
			case e.inst != &tr.Insts[i]:
				t.Fatalf("cycle %d: seq %d does not hold the micro-op at its trace index %d", c.cycle, seq, i)
			case e.inst.IsLoad() && (e.branchCount != div[i] || e.storeCount != st[i]):
				t.Fatalf("cycle %d: load at index %d has branchCount %d storeCount %d, want %d %d",
					c.cycle, i, e.branchCount, e.storeCount, div[i], st[i])
			case e.inst.IsStore() && (e.branchCount != div[i] || e.storeIndex != st[i]):
				t.Fatalf("cycle %d: store at index %d has branchCount %d storeIndex %d, want %d %d",
					c.cycle, i, e.branchCount, e.storeIndex, div[i], st[i])
			}
		}
	}
}

// TestDispatchCountsMatchRecount steps runs that squash and checks the
// counts each dispatch derives from the front end's running counters (see
// countChecker): random streams under no prediction and PHAST, 511.povray
// under PHAST with training at detection (histAt), a core Reset after a run
// cut mid-stream, and a measured run after a WarmContext (resetTraceState).
func TestDispatchCountsMatchRecount(t *testing.T) {
	none := func() mdp.Predictor { return mdp.NewNone() }
	detect := DefaultOptions()
	detect.TrainAtDetect = true
	type tc struct {
		name string
		tr   *trace.Trace
		pred func() mdp.Predictor
		opt  Options
	}
	var cases []tc
	for seed := int64(1); seed <= 4; seed++ {
		tr := randomTrace(seed, 3000)
		cases = append(cases,
			tc{"random/none", tr, none, DefaultOptions()},
			tc{"random/phast", tr, corePHAST, DefaultOptions()})
	}
	cases = append(cases, tc{"511.povray/phast-detect", appTrace(t, "511.povray", 20_000), corePHAST, detect})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(config.AlderLake(), tc.pred(), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			res := stepRun(t, c, tc.tr, 10_000_000, false, countChecker(t, c, tc.tr))
			if res.MemOrderViolations == 0 {
				t.Fatal("no squash; the test proves nothing")
			}
		})
	}

	t.Run("reset", func(t *testing.T) {
		tr := randomTrace(2, 3000)
		c, err := New(config.AlderLake(), mdp.NewNone(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		stepRun(t, c, tr, 2000, false, func() {})
		if c.fetchStores == 0 || c.decodeHist.Count() == 0 {
			t.Fatal("the cut run counted nothing; the reset proves nothing")
		}
		if err := c.Reset(mdp.NewNone()); err != nil {
			t.Fatal(err)
		}
		if res := stepRun(t, c, tr, 10_000_000, false, countChecker(t, c, tr)); res.MemOrderViolations == 0 {
			t.Fatal("no squash; the test proves nothing")
		}
	})

	t.Run("warm", func(t *testing.T) {
		tr := appTrace(t, "511.povray", 24_000)
		warm := tr.Slice(trace.Interval{Start: 0, End: 12_000})
		slice := tr.Slice(trace.Interval{Start: 12_000, End: 24_000})
		c, err := New(config.AlderLake(), corePHAST(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WarmContext(context.Background(), warm); err != nil {
			t.Fatal(err)
		}
		stepRun(t, c, slice, 10_000_000, false, countChecker(t, c, slice))
	})
}
