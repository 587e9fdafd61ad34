package pipeline

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/mdp"
)

var updateWorkCounts = flag.Bool("update-workcounts", false, "rewrite testdata/workcounts.txt from this run")

const workCountsFile = "testdata/workcounts.txt"

// workCountApps are the apps of phastbench's fig15-cold (core-bound) and
// sim-membound (memory-bound) workloads.
var workCountApps = []string{
	"511.povray", "500.perlbench_3", "525.x264_3", "502.gcc_1", "557.xz_1", "531.deepsjeng",
	"505.mcf", "520.omnetpp", "523.xalancbmk", "541.leela",
}

// TestWorkCounts pins the simulator's counted work — the units the cycle
// loop spends host time on — for every workCountApps app under the ideal,
// Store Sets and PHAST predictors and under two that gate on a set of older
// stores, Store Vector (Vector) and always-wait (WaitAll), at n = 20k:
// issue-scan evaluations, cycles jumped as dead, executed-load entries the
// violation search visited, dependents-row words the issue wake-ups visited,
// and heap allocations of one run on a reset core (predictor construction
// included). The counts are
// deterministic and host-independent, so the gate is exact: a change that
// moves one rewrites testdata/workcounts.txt (go test -run WorkCounts
// -update-workcounts) and says why.
func TestWorkCounts(t *testing.T) {
	preds := []struct {
		name string
		mk   func() mdp.Predictor
	}{
		{"ideal", func() mdp.Predictor { return mdp.NewIdeal() }},
		{"storesets", func() mdp.Predictor { return mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()) }},
		{"phast", corePHAST},
		{"storevector", func() mdp.Predictor { return mdp.DefaultStoreVector() }},
		{"alwayswait", func() mdp.Predictor { return mdp.NewAlwaysWait() }},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-9s %6s %7s %9s %8s %7s %8s %6s\n",
		"app", "pred", "uops", "evals", "evals/uop", "skipped", "probes", "depwords", "allocs")
	for _, app := range workCountApps {
		tr := appTrace(t, app, 20_000)
		tr.Pre() // interned traces arrive with prefixes prebuilt
		for _, p := range preds {
			c, err := New(config.AlderLake(), p.mk(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			var uops uint64
			// AllocsPerRun counts the whole process, and the runtime's own
			// background work (the scavenger growing its timer heap after a
			// GC) now and then lands in a measurement. A run's allocations
			// are deterministic, so the least of three is exact.
			allocs := math.Inf(1)
			for range 3 {
				allocs = min(allocs, testing.AllocsPerRun(1, func() {
					if err := c.Reset(p.mk()); err != nil {
						t.Fatal(err)
					}
					res, err := c.Run(tr)
					if err != nil {
						t.Fatal(err)
					}
					uops = res.Committed
				}))
			}
			fmt.Fprintf(&b, "%-16s %-9s %6d %7d %9.3f %8d %7d %8d %6.0f\n",
				app, p.name, uops, c.IssueEvals(), float64(c.IssueEvals())/float64(uops),
				c.SkippedCycles(), c.ViolationProbes(), c.DepRowWords(), allocs)
		}
	}
	got := b.String()
	if *updateWorkCounts {
		if err := os.WriteFile(workCountsFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workCountsFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("work counts differ from %s:\n got\n%s\n want\n%s", workCountsFile, got, want)
	}
}
