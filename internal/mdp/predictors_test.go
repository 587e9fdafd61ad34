package mdp

import (
	"testing"

	"repro/internal/histutil"
)

// newHists builds decode/commit history registers for a predictor, both
// bound to the divergent-branch stream div at position 0.
func newHists(p Predictor, div ...histutil.Entry) (*histutil.Reg, *histutil.Reg) {
	d, c := histutil.NewReg(2048), histutil.NewReg(2048)
	p.Bind(d, c)
	d.Bind(div)
	c.Bind(div)
	return d, c
}

// advance moves every register n entries along its stream.
func advance(n int, regs ...*histutil.Reg) {
	for _, r := range regs {
		for range n {
			r.Advance()
		}
	}
}

func TestStoreSetsLearnsAndSerialises(t *testing.T) {
	ss := NewStoreSets(DefaultStoreSetsConfig())
	d, c := newHists(ss)

	ld := LoadInfo{PC: 0x1000, Seq: 10, StoreCount: 5}
	st := StoreInfo{PC: 0x2000, Seq: 9, StoreIndex: 4}
	if p := ss.Predict(ld, d); p.Kind != NoDep {
		t.Fatal("cold Store Sets should predict no dependence")
	}
	ss.TrainViolation(ld, st, 0, Outcome{}, c)

	// The store must now claim the last-fetched-store slot...
	if dep := ss.StoreDispatch(StoreInfo{PC: 0x2000, Seq: 20, StoreIndex: 8}); dep != 0 {
		t.Errorf("first store of the set should not serialise, got %d", dep)
	}
	// ...and the load must depend on it.
	p := ss.Predict(LoadInfo{PC: 0x1000, Seq: 21, StoreCount: 9}, d)
	if p.Kind != StoreSeq || p.Seq != 20 {
		t.Fatalf("load should depend on the last fetched store, got %+v", p)
	}
	// A second instance of the store serialises behind the first.
	if dep := ss.StoreDispatch(StoreInfo{PC: 0x2000, Seq: 22, StoreIndex: 9}); dep != 20 {
		t.Errorf("same-set store should serialise behind seq 20, got %d", dep)
	}
	// Committing the last fetched store clears the slot.
	ss.StoreCommit(StoreInfo{PC: 0x2000, Seq: 22})
	if p := ss.Predict(LoadInfo{PC: 0x1000, Seq: 30, StoreCount: 12}, d); p.Kind != NoDep {
		t.Errorf("after the set's stores commit, the load should run free, got %+v", p)
	}
}

func TestStoreSetsMerging(t *testing.T) {
	ss := NewStoreSets(DefaultStoreSetsConfig())
	_, c := newHists(ss)
	// Violation 1 creates a set for (load A, store X).
	ss.TrainViolation(LoadInfo{PC: 0xA}, StoreInfo{PC: 0x100}, 0, Outcome{}, c)
	// Violation 2: load B with store X must join X's existing set.
	ss.TrainViolation(LoadInfo{PC: 0xB}, StoreInfo{PC: 0x100}, 0, Outcome{}, c)
	sa := ss.ssit[ss.ssitIndex(0xA)]
	sb := ss.ssit[ss.ssitIndex(0xB)]
	sx := ss.ssit[ss.ssitIndex(0x100)]
	if !sa.valid || !sb.valid || !sx.valid {
		t.Fatal("all three PCs should be in sets")
	}
	if sa.ssid != sx.ssid || sb.ssid != sx.ssid {
		t.Errorf("merging rule violated: ssids %d %d %d", sa.ssid, sb.ssid, sx.ssid)
	}
}

func TestStoreSetsPeriodicReset(t *testing.T) {
	cfg := DefaultStoreSetsConfig()
	cfg.ResetEvery = 10
	ss := NewStoreSets(cfg)
	d, c := newHists(ss)
	ss.TrainViolation(LoadInfo{PC: 0xA}, StoreInfo{PC: 0x100}, 0, Outcome{}, c)
	for i := 0; i < 12; i++ {
		ss.Predict(LoadInfo{PC: 0xA, Seq: uint64(i)}, d)
	}
	if ss.ssit[ss.ssitIndex(0xA)].valid {
		t.Error("periodic reset should have cleared the SSIT")
	}
}

func TestStoreSetsSizeMatchesTableII(t *testing.T) {
	ss := NewStoreSets(DefaultStoreSetsConfig())
	if kb := float64(ss.SizeBits()) / 8192; kb != 18.5 {
		t.Errorf("Store Sets size = %.3f KB, want 18.5 (Table II)", kb)
	}
}

func TestNoSQLearnsDistance(t *testing.T) {
	n := NewNoSQ(DefaultNoSQConfig())
	d, c := newHists(n)
	ld := LoadInfo{PC: 0x1000, StoreCount: 10}
	if p := n.Predict(ld, d); p.Kind != NoDep {
		t.Fatal("cold NoSQ should predict no dependence")
	}
	n.TrainViolation(ld, StoreInfo{StoreIndex: 7}, 2, Outcome{}, c)
	p := n.Predict(ld, d)
	if p.Kind != Distance || p.Dist != 2 {
		t.Fatalf("NoSQ should predict distance 2, got %+v", p)
	}
	if !p.Provider.Valid {
		t.Error("prediction must carry a provider for commit auditing")
	}
}

func TestNoSQConfidenceHalvesOnFalseDep(t *testing.T) {
	n := NewNoSQ(DefaultNoSQConfig())
	d, c := newHists(n)
	ld := LoadInfo{PC: 0x1000, StoreCount: 10}
	n.TrainViolation(ld, StoreInfo{StoreIndex: 7}, 2, Outcome{}, c)
	for i := 0; i < 8; i++ {
		p := n.Predict(ld, d)
		if p.Kind != Distance {
			break
		}
		n.TrainCommit(ld, Outcome{Pred: p, Waited: true, TrueDep: false}, c)
	}
	if p := n.Predict(ld, d); p.Kind != NoDep {
		t.Error("repeated false dependencies should silence the entry")
	}
	// A fresh violation re-arms it at full confidence.
	n.TrainViolation(ld, StoreInfo{StoreIndex: 7}, 2, Outcome{}, c)
	if p := n.Predict(ld, d); p.Kind != Distance {
		t.Error("violation should re-arm the entry")
	}
}

func TestNoSQPathSensitiveWins(t *testing.T) {
	n := NewNoSQ(DefaultNoSQConfig())
	div := []histutil.Entry{histutil.NewEntry(false, true, 0x10)}
	for i := 0; i < 8; i++ {
		div = append(div, histutil.NewEntry(false, false, 0x20))
	}
	d, c := newHists(n, div...)
	ld := LoadInfo{PC: 0x1000, StoreCount: 20}
	// Path 1 trains distance 3.
	advance(1, d, c)
	n.TrainViolation(ld, StoreInfo{StoreIndex: 16}, 3, Outcome{}, c)
	if p := n.Predict(ld, d); p.Kind != Distance || p.Dist != 3 {
		t.Fatalf("path 1 should give distance 3, got %+v", p)
	}
	// Path 2 trains distance 5: the path-sensitive table disambiguates.
	advance(8, d, c)
	n.TrainViolation(ld, StoreInfo{StoreIndex: 14}, 5, Outcome{}, c)
	if p := n.Predict(ld, d); p.Kind != Distance || p.Dist != 5 {
		t.Fatalf("path 2 should give distance 5, got %+v", p)
	}
}

func TestNoSQSizeMatchesTableII(t *testing.T) {
	n := NewNoSQ(DefaultNoSQConfig())
	if kb := float64(n.SizeBits()) / 8192; kb != 19 {
		t.Errorf("NoSQ size = %.3f KB, want 19 (Table II)", kb)
	}
}

func TestMDPTAGELongestMatchWins(t *testing.T) {
	m := NewMDPTAGE(ShortMDPTAGEConfig()) // history lengths 0,2,4,...
	d, c := newHists(m)
	ld := LoadInfo{PC: 0x1000, StoreCount: 30}
	// First violation with no prediction allocates at the shortest length.
	m.TrainViolation(ld, StoreInfo{StoreIndex: 28}, 1, Outcome{}, c)
	p := m.Predict(ld, d)
	if p.Kind != Distance || p.Dist != 1 {
		t.Fatalf("MDP-TAGE should predict distance 1, got %+v", p)
	}
	if p.Provider.Table != 0 {
		t.Fatalf("first allocation should be the shortest component, got %d", p.Provider.Table)
	}
	// A violation despite that prediction must allocate a longer component.
	m.TrainViolation(ld, StoreInfo{StoreIndex: 27}, 2, Outcome{Pred: p}, c)
	p2 := m.Predict(ld, d)
	if p2.Provider.Table <= p.Provider.Table {
		t.Errorf("re-allocation should use a longer history (%d -> %d)",
			p.Provider.Table, p2.Provider.Table)
	}
	if p2.Dist != 2 {
		t.Errorf("longest match should give the new distance, got %d", p2.Dist)
	}
}

func TestMDPTAGESizes(t *testing.T) {
	if kb := float64(NewMDPTAGE(DefaultMDPTAGEConfig()).SizeBits()) / 8192; kb < 38 || kb > 39.5 {
		t.Errorf("MDP-TAGE size = %.2f KB, want ≈ 38.6 (Table II)", kb)
	}
	if kb := float64(NewMDPTAGE(ShortMDPTAGEConfig()).SizeBits()) / 8192; kb != 13 {
		t.Errorf("MDP-TAGE-S size = %.3f KB, want 13 (Table II)", kb)
	}
}

func TestStoreVectorAccumulatesDistances(t *testing.T) {
	sv := DefaultStoreVector()
	d, c := newHists(sv)
	ld := LoadInfo{PC: 0x1000, StoreCount: 10}
	sv.TrainViolation(ld, StoreInfo{}, 1, Outcome{}, c)
	sv.TrainViolation(ld, StoreInfo{}, 4, Outcome{}, c)
	p := sv.Predict(ld, d)
	if p.Kind != Vector || p.Mask != (1<<1|1<<4) {
		t.Fatalf("store vector = %+v, want bits 1 and 4", p)
	}
	// Out-of-range distances are ignored.
	sv.TrainViolation(ld, StoreInfo{}, 64, Outcome{}, c)
	if p := sv.Predict(ld, d); p.Mask != (1<<1 | 1<<4) {
		t.Error("distance ≥ 64 must not corrupt the vector")
	}
}

func TestCHTWaitsAllAfterViolations(t *testing.T) {
	cht := DefaultCHT()
	d, c := newHists(cht)
	ld := LoadInfo{PC: 0x1000}
	if p := cht.Predict(ld, d); p.Kind != NoDep {
		t.Fatal("cold CHT should predict no dependence")
	}
	cht.TrainViolation(ld, StoreInfo{}, 0, Outcome{}, c)
	cht.TrainViolation(ld, StoreInfo{}, 0, Outcome{}, c)
	if p := cht.Predict(ld, d); p.Kind != WaitAll {
		t.Error("two violations should classify the load as colliding")
	}
	// False dependencies decay the counter back below the threshold.
	cht.TrainCommit(ld, Outcome{Pred: Prediction{Kind: WaitAll}, Waited: true}, c)
	cht.TrainCommit(ld, Outcome{Pred: Prediction{Kind: WaitAll}, Waited: true}, c)
	if p := cht.Predict(ld, d); p.Kind != NoDep {
		t.Error("false dependencies should decay the CHT counter")
	}
}

func TestIdealUsesOracle(t *testing.T) {
	id := NewIdeal()
	d, _ := newHists(id)
	if p := id.Predict(LoadInfo{OracleDep: true, OracleDist: 3}, d); p.Kind != Distance || p.Dist != 3 {
		t.Error("ideal must relay the oracle distance")
	}
	if p := id.Predict(LoadInfo{OracleDep: false}, d); p.Kind != NoDep {
		t.Error("ideal must relay the oracle no-dependence")
	}
}

func TestSimplePredictors(t *testing.T) {
	d, _ := newHists(NewNone())
	if p := NewNone().Predict(LoadInfo{OracleDep: true}, d); p.Kind != NoDep {
		t.Error("none must always speculate")
	}
	if p := NewAlwaysWait().Predict(LoadInfo{}, d); p.Kind != WaitAll {
		t.Error("alwayswait must always wait")
	}
}

func TestUnlimitedNoSQExactHistories(t *testing.T) {
	u := NewUnlimitedNoSQ(4)
	var div []histutil.Entry
	for i := 0; i < 4; i++ {
		div = append(div, histutil.NewEntry(false, i%2 == 0, uint64(i)))
	}
	div = append(div, histutil.NewEntry(true, true, 7))
	d, c := newHists(u, div...)
	ld := LoadInfo{PC: 0x1000, StoreCount: 10}
	advance(4, d, c)
	u.TrainViolation(ld, StoreInfo{StoreIndex: 8}, 1, Outcome{}, c)
	if p := u.Predict(ld, d); p.Kind != Distance || p.Dist != 1 {
		t.Fatalf("trained context should predict, got %+v", p)
	}
	if u.Paths() != 1 {
		t.Errorf("paths = %d, want 1", u.Paths())
	}
	// A different history misses the path-sensitive table (exact keys), so
	// the prediction falls back to the path-insensitive one — the NoSQ
	// design's behaviour, not aliasing.
	advance(1, d)
	p := u.Predict(ld, d)
	if p.Kind != Distance || p.Path == nil || p.Path.Key != "" {
		t.Errorf("changed history should fall back to the path-insensitive table, got %+v", p)
	}
}

func TestUnlimitedMDPTAGEPathGrowth(t *testing.T) {
	u := NewUnlimitedMDPTAGE()
	var div []histutil.Entry
	for i := 0; i < 20; i++ {
		div = append(div, histutil.NewEntry(false, i%3 == 0, uint64(i)))
	}
	d, c := newHists(u, div...)
	ld := LoadInfo{PC: 0x1000, StoreCount: 10}
	// Distinct 6-branch contexts each allocate a fresh entry — the path
	// explosion of §III-C.
	for i := 0; i < 20; i++ {
		advance(1, d, c)
		u.TrainViolation(ld, StoreInfo{StoreIndex: 8}, 1, Outcome{}, c)
	}
	if u.Paths() < 15 {
		t.Errorf("unlimited MDP-TAGE should track many contexts, got %d", u.Paths())
	}
}

func TestUnlimitedNoSQCommitDynamics(t *testing.T) {
	u := NewUnlimitedNoSQ(2)
	d, c := newHists(u)
	ld := LoadInfo{PC: 0x1000, StoreCount: 10}
	u.TrainViolation(ld, StoreInfo{StoreIndex: 8}, 1, Outcome{}, c)
	p := u.Predict(ld, d)
	if p.Kind != Distance {
		t.Fatal("should predict after training")
	}
	// Halving on false dependencies silences both tables (the path-
	// sensitive provider first, then the path-insensitive fallback), like
	// the finite NoSQ.
	for i := 0; i < 10; i++ {
		p = u.Predict(ld, d)
		if p.Kind != Distance {
			break
		}
		u.TrainCommit(ld, Outcome{Pred: p, Waited: true, TrueDep: false}, c)
	}
	if got := u.Predict(ld, d); got.Kind != NoDep {
		t.Error("false dependencies should silence the unlimited entry")
	}
	// Reinforcement saturates without overflowing.
	u.TrainViolation(ld, StoreInfo{StoreIndex: 8}, 1, Outcome{}, c)
	p = u.Predict(ld, d)
	for i := 0; i < 20; i++ {
		u.TrainCommit(ld, Outcome{Pred: p, Waited: true, TrueDep: true}, c)
	}
	if got := u.Predict(ld, d); got.Kind != Distance {
		t.Error("reinforced entry should keep predicting")
	}
	if r, w := u.Accesses(); r == 0 || w == 0 {
		t.Error("access counters should move")
	}
}

func TestUnlimitedMDPTAGEClimbsOnWrongPrediction(t *testing.T) {
	u := NewUnlimitedMDPTAGE()
	d, c := newHists(u)
	ld := LoadInfo{PC: 0x1000, StoreCount: 20}
	u.TrainViolation(ld, StoreInfo{StoreIndex: 18}, 1, Outcome{}, c)
	p := u.Predict(ld, d)
	if !p.Provider.Valid || p.Provider.Table != 0 {
		t.Fatalf("first allocation at shortest component, got %+v", p.Provider)
	}
	// Violation despite the prediction: allocate a longer component.
	u.TrainViolation(ld, StoreInfo{StoreIndex: 17}, 2, Outcome{Pred: p}, c)
	p2 := u.Predict(ld, d)
	if p2.Provider.Table <= p.Provider.Table {
		t.Errorf("expected longer component, got %d -> %d", p.Provider.Table, p2.Provider.Table)
	}
	if u.SizeBits() != 0 || u.Paths() < 2 {
		t.Error("unlimited accounting wrong")
	}
}

func TestStoreVectorIgnoresCommitAudit(t *testing.T) {
	sv := DefaultStoreVector()
	d, c := newHists(sv)
	ld := LoadInfo{PC: 0x1000, StoreCount: 10}
	sv.TrainViolation(ld, StoreInfo{}, 2, Outcome{}, c)
	p := sv.Predict(ld, d)
	sv.TrainCommit(ld, Outcome{Pred: p, Waited: true, TrueDep: false}, c)
	if got := sv.Predict(ld, d); got.Mask != p.Mask {
		t.Error("Store Vectors has no per-entry forgetting")
	}
	if sv.SizeBits() == 0 {
		t.Error("vectors have storage")
	}
}

func TestMDPTAGEUsefulnessReset(t *testing.T) {
	cfg := ShortMDPTAGEConfig()
	cfg.UResetEvery = 8
	m := NewMDPTAGE(cfg)
	d, c := newHists(m)
	ld := LoadInfo{PC: 0x1000, StoreCount: 10}
	m.TrainViolation(ld, StoreInfo{StoreIndex: 8}, 1, Outcome{}, c)
	if p := m.Predict(ld, d); p.Kind != Distance {
		t.Fatal("should predict after allocation")
	}
	for i := 0; i < 10; i++ {
		m.Predict(ld, d) // drive past the reset interval
	}
	if p := m.Predict(ld, d); p.Kind != NoDep {
		t.Error("periodic usefulness reset should disable stale entries")
	}
}

func TestStoreSetsDistanceOverflowIgnored(t *testing.T) {
	n := NewNoSQ(DefaultNoSQConfig())
	d, c := newHists(n)
	ld := LoadInfo{PC: 0x1000, StoreCount: 500}
	n.TrainViolation(ld, StoreInfo{StoreIndex: 100}, 399, Outcome{}, c)
	if p := n.Predict(ld, d); p.Kind != NoDep {
		t.Error("distances beyond 7 bits must not train")
	}
}

func TestPredictorNamesAndAccessCounters(t *testing.T) {
	preds := []Predictor{
		NewStoreSets(DefaultStoreSetsConfig()), NewNoSQ(DefaultNoSQConfig()),
		NewMDPTAGE(DefaultMDPTAGEConfig()), DefaultStoreVector(), DefaultCHT(),
		NewIdeal(), NewNone(), NewAlwaysWait(), DefaultPerceptronMDP(),
		NewUnlimitedNoSQ(8), NewUnlimitedMDPTAGE(),
	}
	seen := map[string]bool{}
	for _, p := range preds {
		name := p.Name()
		if name == "" || seen[name] {
			t.Errorf("bad or duplicate name %q", name)
		}
		seen[name] = true
		d, _ := newHists(p)
		p.Predict(LoadInfo{PC: 1, StoreCount: 1}, d)
		p.StoreDispatch(StoreInfo{PC: 2})
		p.StoreCommit(StoreInfo{PC: 2})
	}
}
