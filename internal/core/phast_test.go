package core

import (
	"testing"
	"testing/quick"

	"repro/internal/histutil"
	"repro/internal/mdp"
)

// newBound builds a PHAST and its decode/commit history registers, both
// bound to the divergent-branch stream div and advanced to its end.
func newBound(t *testing.T, cfg Config, div ...histutil.Entry) (*PHAST, *histutil.Reg, *histutil.Reg) {
	t.Helper()
	p := New(cfg)
	d, c := bindHists(p, 2048, div)
	return p, d, c
}

// bindHists binds p to fresh registers of the given capacity, both bound to
// div and advanced to its end.
func bindHists(p mdp.Predictor, capacity int, div []histutil.Entry) (*histutil.Reg, *histutil.Reg) {
	d, c := histutil.NewReg(capacity), histutil.NewReg(capacity)
	p.Bind(d, c)
	for _, r := range []*histutil.Reg{d, c} {
		r.Bind(div)
		for range div {
			r.Advance()
		}
	}
	return d, c
}

func TestDefaultSizeIsTableII(t *testing.T) {
	p := NewDefault()
	if kb := float64(p.SizeBits()) / 8192; kb != 14.5 {
		t.Errorf("PHAST size = %.3f KB, want 14.5 (Table II)", kb)
	}
}

func TestBudgetConfigSizes(t *testing.T) {
	// The Fig. 13 sweep: size scales linearly with sets per table.
	kb := func(sets int) float64 {
		return float64(New(BudgetConfig(sets)).SizeBits()) / 8192
	}
	if kb(64) != 7.25 || kb(256) != 29 {
		t.Errorf("budget sizes: 64 sets = %.2f KB (want 7.25), 256 sets = %.2f KB (want 29)",
			kb(64), kb(256))
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Histories: nil, Sets: 128, Ways: 4, TagBits: 16},
		{Histories: []int{0, 2, 2}, Sets: 128, Ways: 4, TagBits: 16},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config should panic")
				}
			}()
			New(bad)
		}()
	}
}

func TestTableForTruncation(t *testing.T) {
	p := NewDefault() // lengths 0,2,4,6,8,12,16,32
	cases := map[int]int{
		0: 0, 1: 0, 2: 1, 3: 1, 4: 2,
		8: 4, 9: 4, 10: 4, 11: 4, // the paper's example: 9..11 use 8 branches
		12: 5, 16: 6, 31: 6, 32: 7, 100: 7,
	}
	for histLen, wantTable := range cases {
		if got := p.tableFor(histLen); got != wantTable {
			t.Errorf("tableFor(%d) = %d, want %d", histLen, got, wantTable)
		}
	}
}

func TestTrainPredictRoundTrip(t *testing.T) {
	// Build a path of 3 divergent branches.
	var div []histutil.Entry
	for i := 0; i < 3; i++ {
		div = append(div, histutil.NewEntry(false, i%2 == 0, uint64(0x10+i)))
	}
	p, d, c := newBound(t, DefaultConfig(), div...)
	ld := mdp.LoadInfo{PC: 0x4000, BranchCount: 3, StoreCount: 10}
	if got := p.Predict(ld, d); got.Kind != mdp.NoDep {
		t.Fatal("cold PHAST should predict no dependence")
	}
	// Conflict with a store 1 divergent branch back: history length 2.
	st := mdp.StoreInfo{PC: 0x5000, BranchCount: 2, StoreIndex: 6}
	p.TrainViolation(ld, st, 3, mdp.Outcome{}, c)
	got := p.Predict(ld, d)
	if got.Kind != mdp.Distance || got.Dist != 3 {
		t.Fatalf("prediction = %+v, want distance 3", got)
	}
	if got.Provider.Table != 1 {
		t.Errorf("conflict with history length 2 should train table 1, got %d", got.Provider.Table)
	}
	counts := p.LengthCounts()
	if counts[1] != 1 {
		t.Errorf("length counts = %v, want one conflict at table 1", counts)
	}
}

func TestLongerHistoryWins(t *testing.T) {
	var div []histutil.Entry
	for i := 0; i < 8; i++ {
		div = append(div, histutil.NewEntry(false, true, uint64(i)))
	}
	p, d, c := newBound(t, DefaultConfig(), div...)
	ld := mdp.LoadInfo{PC: 0x4000, BranchCount: 8, StoreCount: 20}
	// Train a short-history entry (length 1 -> table 0) and a longer one
	// (length 5 -> table 2, lengths 0,2,4): the longer match must provide.
	p.TrainViolation(ld, mdp.StoreInfo{BranchCount: 8, StoreIndex: 18}, 1, mdp.Outcome{}, c)
	p.TrainViolation(ld, mdp.StoreInfo{BranchCount: 4, StoreIndex: 15}, 4, mdp.Outcome{}, c)
	got := p.Predict(ld, d)
	if got.Kind != mdp.Distance || got.Dist != 4 {
		t.Fatalf("longest history must win: %+v", got)
	}
	if got.Provider.Table != 2 {
		t.Errorf("provider table = %d, want 2", got.Provider.Table)
	}
}

func TestConfidenceLifecycle(t *testing.T) {
	p, d, c := newBound(t, DefaultConfig())
	ld := mdp.LoadInfo{PC: 0x4000, StoreCount: 10}
	p.TrainViolation(ld, mdp.StoreInfo{BranchCount: 0, StoreIndex: 8}, 1, mdp.Outcome{}, c)
	pred := p.Predict(ld, d)
	if pred.Kind != mdp.Distance {
		t.Fatal("should predict after training")
	}
	// ConfMax false dependencies silence the entry (§IV-A2).
	for i := 0; i < int(DefaultConfig().ConfMax); i++ {
		p.TrainCommit(ld, mdp.Outcome{Pred: pred, Waited: true, TrueDep: false}, c)
	}
	if got := p.Predict(ld, d); got.Kind != mdp.NoDep {
		t.Error("zero confidence must disable the prediction")
	}
	// One correct wait resets confidence to the maximum.
	p.TrainViolation(ld, mdp.StoreInfo{BranchCount: 0, StoreIndex: 8}, 1, mdp.Outcome{}, c)
	pred = p.Predict(ld, d)
	p.TrainCommit(ld, mdp.Outcome{Pred: pred, Waited: true, TrueDep: true}, c)
	for i := 0; i < 3; i++ {
		p.TrainCommit(ld, mdp.Outcome{Pred: pred, Waited: true, TrueDep: false}, c)
	}
	if got := p.Predict(ld, d); got.Kind != mdp.Distance {
		t.Error("a correct wait should have reset confidence to the maximum")
	}
}

func TestDistanceFieldWidth(t *testing.T) {
	p, d, c := newBound(t, DefaultConfig())
	ld := mdp.LoadInfo{PC: 0x4000, StoreCount: 500}
	p.TrainViolation(ld, mdp.StoreInfo{StoreIndex: 100}, 399, mdp.Outcome{}, c)
	if got := p.Predict(ld, d); got.Kind != mdp.NoDep {
		t.Error("distances beyond 7 bits must not be trained")
	}
}

func TestPHASTPathSensitivity(t *testing.T) {
	// Two paths to the same load PC train different distances; predictions
	// must follow the live path. Property-checked over arbitrary path pairs.
	f := func(seed uint8) bool {
		// Each occurrence is a fixed prefix branch P followed by the path
		// branch (A or B), so the 2-entry context of the load is exactly
		// [P, A] or [P, B] on every walk. The stream holds the four walks
		// in the order the occurrences below take them.
		prefix := histutil.NewEntry(true, true, uint64(seed)+17)
		pathA := histutil.NewEntry(false, true, uint64(seed))
		pathB := histutil.NewEntry(false, false, uint64(seed)+1)
		div := []histutil.Entry{prefix, pathA, prefix, pathB, prefix, pathA, prefix, pathB}

		p := New(DefaultConfig())
		d, c := histutil.NewReg(64), histutil.NewReg(64)
		p.Bind(d, c)
		d.Bind(div)
		c.Bind(div)
		var branchCount uint64
		occurrence := func(dist int, train bool) mdp.Prediction {
			for range 2 {
				d.Advance()
				c.Advance()
				branchCount++
			}
			ld := mdp.LoadInfo{PC: 0x4000, BranchCount: branchCount, StoreCount: 10}
			pred := p.Predict(ld, d)
			if train {
				// One divergent branch (the path branch) between store and
				// load: history length 2.
				st := mdp.StoreInfo{PC: 0x5000, BranchCount: branchCount - 1,
					StoreIndex: 10 - 1 - uint64(dist)}
				p.TrainViolation(ld, st, dist, mdp.Outcome{}, c)
			}
			return pred
		}
		occurrence(0, true)          // path A
		occurrence(1, true)          // path B
		gotA := occurrence(0, false) // path A
		gotB := occurrence(1, false) // path B
		return gotA.Kind == mdp.Distance && gotA.Dist == 0 &&
			gotB.Kind == mdp.Distance && gotB.Dist == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUnlimitedPHASTExactLengthTraining(t *testing.T) {
	u := NewUnlimitedPHAST(0)
	var div []histutil.Entry
	for i := 0; i < 10; i++ {
		div = append(div, histutil.NewEntry(false, i%2 == 0, uint64(i)))
	}
	d, c := bindHists(u, 2048, div)
	ld := mdp.LoadInfo{PC: 0x4000, BranchCount: 10, StoreCount: 30}
	// N = 4 divergent branches between store and load: trains at length 5.
	st := mdp.StoreInfo{PC: 0x5000, BranchCount: 6, StoreIndex: 25}
	u.TrainViolation(ld, st, 4, mdp.Outcome{}, c)
	counts := u.ConflictLengthCounts()
	if counts[5] != 1 {
		t.Errorf("conflict length counts: %v at 5, want 1", counts[5])
	}
	if got := u.Predict(ld, d); got.Kind != mdp.Distance || got.Dist != 4 {
		t.Fatalf("prediction = %+v", got)
	}
	if u.Paths() != 1 {
		t.Errorf("paths = %d, want 1", u.Paths())
	}
}

func TestUnlimitedPHASTMaxHistCap(t *testing.T) {
	u := NewUnlimitedPHAST(8)
	var div []histutil.Entry
	for i := 0; i < 40; i++ {
		div = append(div, histutil.NewEntry(false, true, uint64(i)))
	}
	d, c := bindHists(u, 2048, div)
	ld := mdp.LoadInfo{PC: 0x4000, BranchCount: 40, StoreCount: 50}
	st := mdp.StoreInfo{BranchCount: 10, StoreIndex: 45} // length 31 -> capped to 8
	u.TrainViolation(ld, st, 4, mdp.Outcome{}, c)
	if got := u.ConflictLengthCounts()[8]; got != 1 {
		t.Errorf("capped training should land at length 8, counts[8] = %d", got)
	}
	if got := u.Predict(ld, d); got.Kind != mdp.Distance {
		t.Error("capped predictor should still predict")
	}
}

func TestUnlimitedPHASTConfidence(t *testing.T) {
	u := NewUnlimitedPHAST(0)
	d, c := bindHists(u, 64, nil)
	ld := mdp.LoadInfo{PC: 0x4000, BranchCount: 0, StoreCount: 10}
	u.TrainViolation(ld, mdp.StoreInfo{StoreIndex: 8}, 1, mdp.Outcome{}, c)
	pred := u.Predict(ld, d)
	for i := 0; i < 15; i++ {
		u.TrainCommit(ld, mdp.Outcome{Pred: pred, Waited: true, TrueDep: false}, c)
	}
	if got := u.Predict(ld, d); got.Kind != mdp.NoDep {
		t.Error("exhausted confidence must stop predicting")
	}
}

func TestPHASTAccountingSurfaces(t *testing.T) {
	p, d, c := newBound(t, DefaultConfig())
	ld := mdp.LoadInfo{PC: 0x4000, StoreCount: 10}
	p.Predict(ld, d)
	p.TrainViolation(ld, mdp.StoreInfo{StoreIndex: 8}, 1, mdp.Outcome{}, c)
	reads, writes := p.Accesses()
	if reads == 0 || writes == 0 {
		t.Error("access counters should move")
	}
	if p.Paths() != 0 {
		t.Error("finite PHAST reports no paths")
	}
	if p.StoreDispatch(mdp.StoreInfo{}) != 0 {
		t.Error("PHAST never serialises stores")
	}
	p.StoreCommit(mdp.StoreInfo{})
	counts := p.LengthCounts()
	sum := uint64(0)
	for _, n := range counts {
		sum += n
	}
	if sum != 1 {
		t.Errorf("length counts sum %d, want 1", sum)
	}
}

func TestPHASTFewTablesVariantStillLearns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Histories = cfg.Histories[:2] // lengths {0, 2} only
	p := New(cfg)
	d, c := bindHists(p, 64, nil)
	ld := mdp.LoadInfo{PC: 0x4000, BranchCount: 20, StoreCount: 10}
	// A long-history conflict truncates to the longest available table.
	st := mdp.StoreInfo{BranchCount: 2, StoreIndex: 8}
	p.TrainViolation(ld, st, 1, mdp.Outcome{}, c)
	if got := p.Predict(ld, d); got.Kind != mdp.Distance {
		t.Error("truncated-history training should still hit")
	}
	if p.LengthCounts()[1] != 1 {
		t.Error("conflict should land in the longest table")
	}
}
