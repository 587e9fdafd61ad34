package bpred

import (
	"testing"

	"repro/internal/isa"
)

func TestNewDirKnowsAllNames(t *testing.T) {
	for _, name := range DirNames() {
		d, err := NewDir(name)
		if err != nil {
			t.Fatalf("NewDir(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Errorf("NewDir(%q).Name() = %q", name, d.Name())
		}
		if DirYear(name) == 0 {
			t.Errorf("DirYear(%q) = 0", name)
		}
	}
	if _, err := NewDir("crystalball"); err == nil {
		t.Error("unknown predictor should error")
	}
	if DirYear("crystalball") != 0 {
		t.Error("unknown predictor year should be 0")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(10)
	for i := 0; i < 10; i++ {
		b.Update(0x40, true)
	}
	if !b.Predict(0x40) {
		t.Error("bimodal should learn a taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(0x40, false)
	}
	if b.Predict(0x40) {
		t.Error("bimodal should relearn a not-taken bias")
	}
}

func TestGShareLearnsCorrelation(t *testing.T) {
	// Branch B is taken iff the previous branch A was taken: pure history
	// correlation that a bimodal cannot capture.
	g := NewGShare(12, 8)
	misp := 0
	taken := false
	for i := 0; i < 4000; i++ {
		aTaken := i%3 == 0
		g.Update(0xA0, aTaken)
		taken = aTaken
		if g.Predict(0xB0) != taken {
			if i > 1000 {
				misp++
			}
		}
		g.Update(0xB0, taken)
	}
	if misp > 100 {
		t.Errorf("gshare failed to learn history correlation: %d late mispredicts", misp)
	}
}

func TestPerceptronLearnsLinearlySeparable(t *testing.T) {
	p := NewPerceptron(8, 16)
	misp := 0
	hist := make([]bool, 16)
	for i := 0; i < 6000; i++ {
		// Outcome = XOR of nothing fancy: taken iff hist[last] (shifted
		// correlation), which is linearly separable.
		taken := hist[15]
		if p.Predict(0xC0) != taken && i > 2000 {
			misp++
		}
		p.Update(0xC0, taken)
		copy(hist, hist[1:])
		hist[15] = i%5 == 0
	}
	if misp > 200 {
		t.Errorf("perceptron failed on separable pattern: %d late mispredicts", misp)
	}
}

// TestPeriodicLearnability: every history-based predictor must learn a
// noise-free periodic pattern almost perfectly — this guards the property
// the whole workload suite's branch realism depends on.
func TestPeriodicLearnability(t *testing.T) {
	pat := []bool{true, false, true, true, false, false, true, false}
	for _, name := range []string{"gshare", "tage", "tagescl"} {
		d, _ := NewDir(name)
		misp := 0
		for i := 0; i < 20000; i++ {
			taken := pat[i%len(pat)]
			if d.Predict(0x1234) != taken && i > 4000 {
				misp++
			}
			d.Update(0x1234, taken)
		}
		if misp > 160 { // <1% after warm-up
			t.Errorf("%s: %d late mispredicts on a period-8 pattern", name, misp)
		}
	}
}

func TestTAGELoopPredictorFixedTripCount(t *testing.T) {
	d := NewTAGESCL()
	misp := 0
	for rep := 0; rep < 400; rep++ {
		for i := 0; i < 37; i++ {
			taken := i < 36 // 36 taken, then one exit
			if d.Predict(0x99) != taken && rep > 40 {
				misp++
			}
			d.Update(0x99, taken)
		}
	}
	if misp > 100 {
		t.Errorf("loop predictor missed a fixed trip count: %d late mispredicts", misp)
	}
}

func TestTAGESCLIrregularBranchDoesNotThrash(t *testing.T) {
	// An irregular trip count must not let the loop override hurt accuracy
	// versus plain TAGE (the pre-fix behaviour regressed 300x here).
	trip := []int{3, 5, 2, 7, 4, 6, 3, 5}
	run := func(d DirPredictor) int {
		misp := 0
		n := 0
		for rep := 0; n < 30000; rep++ {
			tc := trip[rep%len(trip)]
			for i := 0; i <= tc; i++ {
				taken := i < tc
				if d.Predict(0x77) != taken && n > 6000 {
					misp++
				}
				d.Update(0x77, taken)
				n++
			}
		}
		return misp
	}
	tage, _ := NewDir("tage")
	scl, _ := NewDir("tagescl")
	mTage, mSCL := run(tage), run(scl)
	if mSCL > mTage*2+200 {
		t.Errorf("TAGE-SC-L (%d) much worse than TAGE (%d) on irregular loop", mSCL, mTage)
	}
}

func TestTargetCachePeriodicIndirect(t *testing.T) {
	tc := NewTargetCache(11)
	// Targets differing only in high bits (0x100-spaced handlers).
	sched := []uint64{0x1100, 0x1200, 0x1100, 0x1300, 0x1200, 0x1100, 0x1300, 0x1300, 0x1200}
	misp := 0
	for i := 0; i < 20000; i++ {
		target := sched[i%len(sched)]
		got, ok := tc.Predict(0x5678)
		if (!ok || got != target) && i > 4000 {
			misp++
		}
		tc.Update(0x5678, target)
	}
	if misp > 160 {
		t.Errorf("target cache: %d late mispredicts on periodic indirect", misp)
	}
}

func TestUnitRAS(t *testing.T) {
	d, _ := NewDir("bimodal")
	u := NewUnit(d)
	call := isa.Inst{PC: 0x100, Kind: isa.Branch, Class: isa.Call, Taken: true, Addr: 0x1000}
	ret := isa.Inst{PC: 0x1040, Kind: isa.Branch, Class: isa.Return, Taken: true, Addr: 0x104}
	if u.PredictAndTrain(&call) {
		t.Error("direct call must never mispredict")
	}
	if u.PredictAndTrain(&ret) {
		t.Error("matched return must be predicted by the RAS")
	}
	// An unmatched return (empty RAS) mispredicts.
	if !u.PredictAndTrain(&ret) {
		t.Error("return with empty RAS should mispredict")
	}
	if u.Branches != 3 || u.Mispredicts != 1 {
		t.Errorf("unit counters = %d/%d", u.Branches, u.Mispredicts)
	}
}

func TestUnitRASOverflowKeepsYoungest(t *testing.T) {
	d, _ := NewDir("bimodal")
	u := NewUnit(d)
	for i := 0; i < 80; i++ { // deeper than the 64-entry RAS
		call := isa.Inst{PC: uint64(0x100 + i*8), Kind: isa.Branch, Class: isa.Call,
			Taken: true, Addr: 0x1000}
		u.PredictAndTrain(&call)
	}
	// The youngest return address must still be correct.
	ret := isa.Inst{PC: 0x2000, Kind: isa.Branch, Class: isa.Return, Taken: true,
		Addr: uint64(0x100 + 79*8 + 4)}
	if u.PredictAndTrain(&ret) {
		t.Error("youngest return must survive RAS overflow")
	}
}

func TestUnitDirectNeverMispredicts(t *testing.T) {
	d, _ := NewDir("bimodal")
	u := NewUnit(d)
	j := isa.Inst{PC: 0x50, Kind: isa.Branch, Class: isa.Direct, Taken: true, Addr: 0x90}
	for i := 0; i < 5; i++ {
		if u.PredictAndTrain(&j) {
			t.Fatal("direct jumps have static targets")
		}
	}
}

func TestMPKIOverEmpty(t *testing.T) {
	d, _ := NewDir("bimodal")
	if got := MPKIOver(d, nil); got != 0 {
		t.Errorf("MPKIOver(empty) = %f", got)
	}
}
