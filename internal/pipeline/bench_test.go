package pipeline

import (
	"testing"

	"repro/internal/config"
)

// BenchmarkCoreRun measures the cycle loop alone: one pooled core, reset
// between iterations as sim's core pool does, re-running a fixed interned
// trace under PHAST. It reports simulated micro-ops per host second, the
// share of simulated cycles the loop jumped over as dead (see RunContext)
// and the issue scan's entry evaluations per micro-op (see issueStage).
func BenchmarkCoreRun(b *testing.B) {
	for _, app := range []string{"505.mcf", "511.povray", "541.leela", "502.gcc_1"} {
		b.Run(app, func(b *testing.B) {
			tr := appTrace(b, app, 100_000)
			tr.Pre()
			c, err := New(config.AlderLake(), corePHAST(), DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			var uops, cycles, skipped, evals uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Reset(corePHAST()); err != nil {
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
