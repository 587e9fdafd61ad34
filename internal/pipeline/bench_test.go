package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mdp"
)

// BenchmarkCoreRun measures the cycle loop alone: one pooled core, reset
// between iterations as sim's core pool does, re-running a fixed interned
// trace under PHAST, under Store Sets on the two apps where its waits
// behind unissued stores dominate, under MDP-TAGE (the largest tables) on
// two memory-bound apps, and under the two gates that wait on a set of older
// stores: Store Vector on 557.xz_1 and always-wait on 511.povray. It reports
// simulated micro-ops per host second, the share of simulated cycles the
// loop jumped over as dead (see RunContext) and the issue scan's entry
// evaluations per micro-op (see issueStage).
func BenchmarkCoreRun(b *testing.B) {
	storeSets := func() mdp.Predictor { return mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()) }
	mdpTAGE := func() mdp.Predictor { return mdp.NewMDPTAGE(mdp.DefaultMDPTAGEConfig()) }
	cases := []struct {
		name, app string
		pred      func() mdp.Predictor
	}{
		{"505.mcf", "505.mcf", corePHAST},
		{"511.povray", "511.povray", corePHAST},
		{"541.leela", "541.leela", corePHAST},
		{"502.gcc_1", "502.gcc_1", corePHAST},
		{"500.perlbench_3/storesets", "500.perlbench_3", storeSets},
		{"557.xz_1/storesets", "557.xz_1", storeSets},
		{"505.mcf/mdptage", "505.mcf", mdpTAGE},
		{"541.leela/mdptage", "541.leela", mdpTAGE},
		{"557.xz_1/storevector", "557.xz_1", func() mdp.Predictor { return mdp.DefaultStoreVector() }},
		{"511.povray/alwayswait", "511.povray", func() mdp.Predictor { return mdp.NewAlwaysWait() }},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			// Interned traces arrive with prefixes and branch outcomes built.
			tr := appTrace(b, bc.app, 100_000)
			tr.Pre()
			if _, err := tr.BranchOutcomes(DefaultOptions().BranchPredictor, firstPredicted); err != nil {
				b.Fatal(err)
			}
			c, err := New(config.AlderLake(), bc.pred(), DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			var uops, cycles, skipped, evals uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Reset(bc.pred()); err != nil {
					b.Fatal(err)
				}
				run, err := c.Run(tr)
				if err != nil {
					b.Fatal(err)
				}
				uops += run.Committed
				cycles += run.Cycles
				skipped += c.SkippedCycles()
				evals += c.IssueEvals()
			}
			b.ReportMetric(float64(uops)/b.Elapsed().Seconds(), "uops/s")
			b.ReportMetric(float64(skipped)/float64(cycles), "skipped/cycle")
			b.ReportMetric(float64(evals)/float64(uops), "evals/uop")
		})
	}
}
