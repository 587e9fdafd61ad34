package histutil_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/histutil"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// histCap is the core's history capacity (pipeline.HistCap).
const histCap = 2048

// boundRegs returns a decode register carrying the folds the predictor
// spec registers, bound to div; the commit register is discarded.
func boundRegs(t testing.TB, spec string, div []histutil.Entry) *histutil.Reg {
	t.Helper()
	p, err := sim.NewPredictor(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := histutil.NewReg(histCap)
	p.Bind(d, histutil.NewReg(histCap))
	d.Bind(div)
	return d
}

// checkFolds reports the first registered fold of r that disagrees with
// the reference fold of r's history.
func checkFolds(t *testing.T, what string, r *histutil.Reg) bool {
	t.Helper()
	for _, f := range r.Folds() {
		if want := histutil.FoldEntries(r.Last(f.Len), f.Width); f.Value() != want {
			t.Errorf("%s at %d: fold(%d,%d) = %#x, want %#x", what, r.Count(), f.Len, f.Width, f.Value(), want)
			return false
		}
	}
	return true
}

// TestPredictorFoldGeometries drives every fold geometry a predictor family
// registers — each family at its default and at every Fig. 13 budget — plus
// a zero-length and a full-capacity fold, through random runs of Advance
// and seeks (to 0, past the capacity, forward and back) over a stream
// longer than the capacity, and checks each fold against the reference.
func TestPredictorFoldGeometries(t *testing.T) {
	div := histutil.RandomStream(rand.New(rand.NewSource(1)), 3*histCap)
	seen := map[[2]int]bool{}
	for _, f := range sim.Families() {
		for _, spec := range append([]string{f.Name}, f.BudgetSpecs()...) {
			r := boundRegs(t, spec, div)
			r.NewFold(0, 7)
			r.NewFold(histCap, 23)
			for _, fd := range r.Folds() {
				seen[[2]int{fd.Len, fd.Width}] = true
			}
			rng := rand.New(rand.NewSource(int64(len(spec))))
			for op := 0; op < 40; op++ {
				switch x := rng.Intn(4); {
				case x < 2:
					for n := rng.Intn(200); n > 0 && r.Count() < uint64(len(div)); n-- {
						r.Advance()
					}
				case x < 3:
					r.Seek(uint64(rng.Intn(len(div) + 1)))
				default:
					r.Seek(0)
				}
				if !checkFolds(t, spec, r) {
					break
				}
			}
		}
	}
	// PHAST's and MDP-TAGE's longest histories must be among them.
	for _, g := range [][2]int{{32, 23}, {2000, 24}} {
		if !seen[g] {
			t.Errorf("no predictor registered a fold of length %d and width %d", g[0], g[1])
		}
	}
}

// TestConcurrentViewsShareStream advances two registers bound to one stream
// on two goroutines: a register only reads its stream, so under -race the
// views neither race nor disturb each other.
func TestConcurrentViewsShareStream(t *testing.T) {
	div := histutil.RandomStream(rand.New(rand.NewSource(2)), 2*histCap)
	regs := []*histutil.Reg{boundRegs(t, "phast", div), boundRegs(t, "mdptage", div)}
	var wg sync.WaitGroup
	for i, r := range regs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range div {
				r.Advance()
				if k%500 == 499 {
					// Rewind and refetch, as a squash does.
					r.Seek(uint64(k + 1 - 100*(i+1)))
					for range 100 * (i + 1) {
						r.Advance()
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, r := range regs {
		if r.Count() != uint64(len(div)) {
			t.Errorf("register %d ended at %d, want %d", i, r.Count(), len(div))
		}
		checkFolds(t, []string{"phast", "mdptage"}[i], r)
	}
}

// BenchmarkHistory times the history registers over a generated stream's
// divergent-branch entries: Advance carrying PHAST's and MDP-TAGE's
// registered folds (the per-branch cost at fetch), and Seek back a short
// way as a squash rewinds the decode-time register, refolding every fold.
func BenchmarkHistory(b *testing.B) {
	p, err := workload.ByName("541.leela")
	if err != nil {
		b.Fatal(err)
	}
	div := trace.Generate(p, 100_000, 0).Pre().DivEntries
	for _, spec := range []string{"phast", "mdptage"} {
		b.Run("advance/"+spec, func(b *testing.B) {
			r := boundRegs(b, spec, div)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Bind(div)
				for range div {
					r.Advance()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(div)), "ns/advance")
		})
		b.Run("seek/"+spec, func(b *testing.B) {
			r := boundRegs(b, spec, div)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A squash rewinds a few branches behind the fetch point.
				k := uint64(rng.Intn(len(div)))
				r.Seek(k - min(k, uint64(rng.Intn(16))))
			}
		})
	}
}
