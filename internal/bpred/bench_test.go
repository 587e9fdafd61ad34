package bpred

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkBpred times the branch-outcome pass a run's front end reads its
// mispredictions from: Unit.Pass of a fresh TAGE-SC-L unit (the default
// direction predictor) over a generated 100k-µop stream, reporting host
// nanoseconds per branch. Building the unit is not timed.
func BenchmarkBpred(b *testing.B) {
	for _, app := range []string{"541.leela", "505.mcf"} {
		b.Run(app, func(b *testing.B) {
			p, err := workload.ByName(app)
			if err != nil {
				b.Fatal(err)
			}
			insts := workload.Generate(p, 100_000, 0)
			var branches uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u := NewUnit(NewTAGESCL())
				b.StartTimer()
				branches += u.Pass(insts, 0).Branches
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(branches), "ns/branch")
		})
	}
}
