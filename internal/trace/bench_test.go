package trace

import (
	"bytes"
	"runtime"
	"testing"
)

// reportPerUop reports the loop's host nanoseconds and heap bytes per
// micro-op of an n-µop trace; before is the heap state at the timer's reset.
func reportPerUop(b *testing.B, n int, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	uops := float64(b.N) * float64(n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/uops, "ns/µop")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/uops, "B/µop")
}

// BenchmarkTraceDecode decodes a 100k-µop trace of a core-bound and a
// memory-bound app from memory, as the trace store serves uploaded streams.
func BenchmarkTraceDecode(b *testing.B) {
	for _, app := range []string{"511.povray", "505.mcf"} {
		b.Run(app, func(b *testing.B) {
			var buf bytes.Buffer
			if err := testTrace(b, app, 100_000).Encode(&buf); err != nil {
				b.Fatal(err)
			}
			raw := buf.Bytes()
			var before runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
			reportPerUop(b, 100_000, &before)
		})
	}
}

// BenchmarkTracePre builds the shared prefixes (Pre) of a 100k-µop trace,
// the work an interned trace does once before its first run.
func BenchmarkTracePre(b *testing.B) {
	for _, app := range []string{"511.povray", "505.mcf"} {
		b.Run(app, func(b *testing.B) {
			insts := testTrace(b, app, 100_000).Insts
			var before runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				(&Trace{Insts: insts}).Pre()
			}
			reportPerUop(b, 100_000, &before)
		})
	}
}
