package pipeline

// Hot-path guarantees (DESIGN.md §10): a Reset core is bit-identical to a
// fresh one, and the steady-state simulation loop allocates nothing — every
// allocation is per-run setup, independent of how many instructions flow
// through the core.

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/mdp"
	"repro/internal/trace"
)

// TestResetCoreMatchesFresh is the contract Core.Reset documents and the
// sim-level core pool depends on: running on a reset core must produce the
// same result, bit for bit, as running on a newly constructed one — across
// predictor families, filter modes, and a dirty intervening run on a
// different app.
func TestResetCoreMatchesFresh(t *testing.T) {
	main := appTrace(t, "511.povray", 25000)
	dirty := appTrace(t, "541.leela", 12000)
	cases := []struct {
		name string
		pred func() mdp.Predictor
		opt  Options
	}{
		{"phast", corePHAST, DefaultOptions()},
		{"storesets", func() mdp.Predictor { return mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()) }, DefaultOptions()},
		{"nosq-svw", func() mdp.Predictor { return mdp.NewNoSQ(mdp.DefaultNoSQConfig()) },
			func() Options { o := DefaultOptions(); o.Filter = FilterSVW; return o }()},
		{"ideal", func() mdp.Predictor { return mdp.NewIdeal() }, DefaultOptions()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := run(t, main, tc.pred(), tc.opt).res

			c, err := New(config.AlderLake(), tc.pred(), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			// Pollute every structure the reset must clean: a run on a
			// different workload leaves caches, histories, queues, filters
			// and predictor state all dirty.
			if _, err := c.Run(dirty); err != nil {
				t.Fatal(err)
			}
			if err := c.Reset(tc.pred()); err != nil {
				t.Fatal(err)
			}
			reused, err := c.Run(main)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("reset core diverged from fresh core:\nfresh  %+v\nreused %+v", fresh, reused)
			}
		})
	}
}

// TestSteadyStateZeroAlloc proves the timing loop itself is allocation-free:
// simulating 6x the instructions must cost exactly the same number of heap
// allocations (all of which are per-run setup — predictor, branch
// predictor, result copy). 505.mcf spends most of its cycles in dead-cycle
// jumps, so it covers the skip path; 511.povray the stepping path.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, app := range []string{"511.povray", "505.mcf"} {
		t.Run(app, func(t *testing.T) {
			short := appTrace(t, app, 4000)
			long := appTrace(t, app, 24000)
			// Interned traces arrive with prefixes prebuilt, as in sim.TraceFor.
			short.Pre()
			long.Pre()
			opt := DefaultOptions()
			c, err := New(config.AlderLake(), corePHAST(), opt)
			if err != nil {
				t.Fatal(err)
			}
			measure := func(tr *trace.Trace) float64 {
				return testing.AllocsPerRun(3, func() {
					if err := c.Reset(corePHAST()); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Run(tr); err != nil {
						t.Fatal(err)
					}
				})
			}
			// Warm both lengths once so one-time pool growth (predictor
			// table nodes surviving in the same core) cannot masquerade as
			// steady-state allocation.
			measure(long)
			allocsShort := measure(short)
			allocsLong := measure(long)
			if allocsLong != allocsShort {
				t.Errorf("steady state allocates: %v allocs at n=4000 vs %v at n=24000 (want equal)",
					allocsShort, allocsLong)
			}
		})
	}
}
