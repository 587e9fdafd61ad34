package mdp

import "testing"

// BenchmarkAssocTableLookup times one Lookup, with its Touch on a hit, in a
// PHAST-sized table (128 sets × 4 ways): in empty sets, the common case for
// predictors trained only on violations, and in full sets probed with tags
// of which half hit.
func BenchmarkAssocTableLookup(b *testing.B) {
	const sets, ways = 128, 4
	for _, full := range []bool{false, true} {
		name := "empty"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			tb := NewAssocTable(sets, ways, 16)
			if full {
				for s := uint32(0); s < sets; s++ {
					for w := uint32(0); w < ways; w++ {
						tb.Insert(s, Entry{Valid: true, Tag: w})
					}
				}
			}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set, tag := uint32(i*37)&(sets-1), uint32(i)&(2*ways-1)
				if _, w := tb.Lookup(set, tag); w >= 0 {
					tb.Touch(set, w)
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}
