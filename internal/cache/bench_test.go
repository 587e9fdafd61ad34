package cache

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkHierarchyLoad replays the data-access stream of a generated
// memory-bound app — its loads as demand loads (training the prefetcher),
// its stores as store-buffer drains, one access per cycle — through a reset
// alderlake hierarchy, and reports host nanoseconds per access. It times
// all levels apart from the core, but its profile is not the core's: at one
// access per cycle, far denser than a simulated core issues them, all 64
// L1D MSHRs stay busy, so reserveMSHR's linear scan of them takes about a
// quarter of its time, where inside BenchmarkCoreRun it takes about 1%.
func BenchmarkHierarchyLoad(b *testing.B) {
	for _, app := range []string{"505.mcf", "541.leela"} {
		b.Run(app, func(b *testing.B) {
			p, err := workload.ByName(app)
			if err != nil {
				b.Fatal(err)
			}
			type access struct {
				pc, addr uint64
				store    bool
			}
			var stream []access
			for _, in := range trace.Generate(p, 100_000, 0).Insts {
				if in.IsMem() {
					stream = append(stream, access{in.PC, in.Addr, in.Kind == isa.Store})
				}
			}
			h := New(config.AlderLake())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				for cycle, a := range stream {
					if a.store {
						h.StoreDrain(uint64(cycle), a.addr)
					} else {
						h.Load(uint64(cycle), a.pc, a.addr)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/access")
		})
	}
}
