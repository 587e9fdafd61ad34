package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/trace"
	"repro/internal/workload"
)

func run(t *testing.T, tr *trace.Trace, pred mdp.Predictor, opt Options) *coreResult {
	t.Helper()
	c, err := New(config.AlderLake(), pred, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return &coreResult{res: res, core: c}
}

type coreResult struct {
	res  *statsRun
	core *Core
}

// statsRun aliases the stats type without importing it twice in tests.
type statsRun = runAlias

func appTrace(t testing.TB, name string, n int) *trace.Trace {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Generate(p, n, 0)
}

// TestEveryPredictorCommitsEverything: the fundamental forward-progress and
// ordering invariant, for each predictor class, on a conflict-heavy app.
func TestEveryPredictorCommitsEverything(t *testing.T) {
	tr := appTrace(t, "511.povray", 30000)
	preds := map[string]mdp.Predictor{
		"ideal":      mdp.NewIdeal(),
		"none":       mdp.NewNone(),
		"alwayswait": mdp.NewAlwaysWait(),
		"storesets":  mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()),
		"nosq":       mdp.NewNoSQ(mdp.DefaultNoSQConfig()),
		"mdptage":    mdp.NewMDPTAGE(mdp.DefaultMDPTAGEConfig()),
		"vector":     mdp.DefaultStoreVector(),
		"cht":        mdp.DefaultCHT(),
	}
	for name, p := range preds {
		r := run(t, tr, p, DefaultOptions())
		if r.res.Committed != 30000 {
			t.Errorf("%s: committed %d, want 30000", name, r.res.Committed)
		}
		if r.res.Cycles == 0 || r.res.IPC() <= 0 {
			t.Errorf("%s: degenerate cycle count", name)
		}
	}
}

// TestIdealIsIdeal: with the forwarding filter on, the oracle suffers no
// memory order violations and no false dependencies — the paper's
// normalisation baseline must be clean by construction.
func TestIdealIsIdeal(t *testing.T) {
	for _, app := range []string{"511.povray", "502.gcc_1", "525.x264_3", "541.leela"} {
		tr := appTrace(t, app, 30000)
		r := run(t, tr, mdp.NewIdeal(), DefaultOptions())
		if r.res.MemOrderViolations != 0 {
			t.Errorf("%s: ideal suffered %d violations", app, r.res.MemOrderViolations)
		}
		if r.res.FalseDependencies != 0 {
			t.Errorf("%s: ideal suffered %d false dependencies", app, r.res.FalseDependencies)
		}
	}
}

// TestNoneExposesViolations: always-speculate must squash on conflict apps,
// and always-wait must trade them for false dependencies.
func TestNoneExposesViolations(t *testing.T) {
	tr := appTrace(t, "511.povray", 30000)
	none := run(t, tr, mdp.NewNone(), DefaultOptions())
	if none.res.MemOrderViolations == 0 {
		t.Error("none should suffer violations on povray")
	}
	if none.res.FalseDependencies != 0 {
		t.Error("none never waits, so it cannot have false dependencies")
	}
	wait := run(t, tr, mdp.NewAlwaysWait(), DefaultOptions())
	if wait.res.MemOrderViolations != 0 {
		t.Error("alwayswait should never violate")
	}
	if wait.res.FalseDependencies == 0 {
		t.Error("alwayswait should pay false dependencies")
	}
}

// TestDeterminism: identical configurations produce identical results.
func TestDeterminism(t *testing.T) {
	tr := appTrace(t, "502.gcc_1", 20000)
	a := run(t, tr, mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()), DefaultOptions())
	b := run(t, tr, mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()), DefaultOptions())
	if a.res.Cycles != b.res.Cycles || a.res.MemOrderViolations != b.res.MemOrderViolations ||
		a.res.FalseDependencies != b.res.FalseDependencies {
		t.Errorf("nondeterministic: %+v vs %+v", a.res, b.res)
	}
}

// TestFwdFilterReducesViolations: disabling the §IV-A1 filter must not
// reduce (and normally increases) squashes — the Fig. 12 mechanism.
func TestFwdFilterReducesViolations(t *testing.T) {
	tr := appTrace(t, "525.x264_3", 40000)
	on := run(t, tr, mdp.NewNone(), DefaultOptions())
	off := DefaultOptions()
	off.Filter = FilterNone
	offR := run(t, tr, mdp.NewNone(), off)
	if offR.res.MemOrderViolations < on.res.MemOrderViolations {
		t.Errorf("FWD off (%d) should not have fewer violations than on (%d)",
			offR.res.MemOrderViolations, on.res.MemOrderViolations)
	}
}

// TestForwardingHappens: store-to-load forwarding must feed a significant
// share of dependent loads on spill/fill heavy apps.
func TestForwardingHappens(t *testing.T) {
	tr := appTrace(t, "548.exchange2", 30000)
	r := run(t, tr, mdp.NewIdeal(), DefaultOptions())
	if r.res.Forwards == 0 {
		t.Error("exchange2's spill/fill traffic should forward")
	}
}

// TestSquashAccounting: squashed micro-ops only arise with violations, and
// fetched ≥ committed always.
func TestSquashAccounting(t *testing.T) {
	tr := appTrace(t, "511.povray", 30000)
	n := run(t, tr, mdp.NewNone(), DefaultOptions())
	if n.res.SquashedUops == 0 {
		t.Error("violations must discard micro-ops")
	}
	if n.res.Fetched < n.res.Committed {
		t.Errorf("fetched %d < committed %d", n.res.Fetched, n.res.Committed)
	}
	i := run(t, tr, mdp.NewIdeal(), DefaultOptions())
	if i.res.SquashedUops != 0 {
		t.Error("the oracle must not squash")
	}
	if i.res.Fetched != i.res.Committed {
		t.Error("without squashes, fetched == committed")
	}
}

// TestStoreSetsSerialisationCost: on the loop-carried same-store-PC app the
// set-based predictor must lose IPC against a distance predictor (the
// paper's perlbench_3 / §VII discussion).
func TestStoreSetsSerialisationCost(t *testing.T) {
	tr := appTrace(t, "500.perlbench_3", 60000)
	ss := run(t, tr, mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()), DefaultOptions())
	ph := run(t, tr, newPHASTForTest(t), DefaultOptions())
	if ss.res.IPC() >= ph.res.IPC() {
		t.Errorf("Store Sets IPC %.3f should trail a distance predictor %.3f on perlbench_3",
			ss.res.IPC(), ph.res.IPC())
	}
}

// TestBranchMPKIRealistic: with the TAGE-SC-L front end the suite's branch
// MPKI must be in the single digits (Fig. 1's right edge), not tens.
func TestBranchMPKIRealistic(t *testing.T) {
	tr := appTrace(t, "511.povray", 40000)
	r := run(t, tr, mdp.NewIdeal(), DefaultOptions())
	if got := r.res.BranchMPKI(); got > 12 {
		t.Errorf("branch MPKI %.1f unrealistically high", got)
	}
}

// TestTinyHandCraftedConflict: a minimal hand-built trace where a load must
// conflict with exactly one unresolved store — checks violation detection,
// training distance, and recovery end to end.
func TestTinyHandCraftedConflict(t *testing.T) {
	const addr = 0x1000
	var insts []isa.Inst
	// Repeat: slow-address store to addr, then an immediate load of addr.
	for i := 0; i < 400; i++ {
		pc := uint64(0x100)
		insts = append(insts,
			isa.Inst{PC: pc, Kind: isa.ALU, Dst: 5, SrcA: 0, Lat: 12},
			isa.Inst{PC: pc + 4, Kind: isa.Store, SrcA: 5, SrcB: 0, Addr: addr, Size: 8},
			isa.Inst{PC: pc + 8, Kind: isa.Load, Dst: 1, SrcA: 0, Addr: addr, Size: 8},
			isa.Inst{PC: pc + 12, Kind: isa.ALU, Dst: 9, SrcA: 9, SrcB: 1, Lat: 1},
		)
	}
	tr := &trace.Trace{Name: "tiny", Insts: insts}

	none := run(t, tr, mdp.NewNone(), DefaultOptions())
	if none.res.MemOrderViolations < 100 {
		t.Errorf("speculating through an unresolved store should violate, got %d",
			none.res.MemOrderViolations)
	}
	ph := run(t, tr, newPHASTForTest(t), DefaultOptions())
	if ph.res.MemOrderViolations > 5 {
		t.Errorf("PHAST should learn the distance-0 dependence, got %d violations",
			ph.res.MemOrderViolations)
	}
	if ph.res.Forwards < 300 {
		t.Errorf("predicted loads should forward, got %d", ph.res.Forwards)
	}
	if ph.res.FalseDependencies > 5 {
		t.Errorf("the dependence is always real; false deps = %d", ph.res.FalseDependencies)
	}
}

// TestPartialCoverageStall: narrow stores under a wide load cannot forward;
// the load must wait for the store buffer and never violate with the oracle.
func TestPartialCoverageStall(t *testing.T) {
	tr := appTrace(t, "525.x264_3", 40000)
	r := run(t, tr, mdp.NewIdeal(), DefaultOptions())
	if r.res.MemOrderViolations != 0 {
		t.Errorf("ideal on x264_3: %d violations", r.res.MemOrderViolations)
	}
}

// TestGenerationsScaleViolations: a bigger machine must expose at least as
// many (and normally more) violations for the always-speculate baseline —
// the paper's Fig. 2 motivation.
func TestGenerationsScaleViolations(t *testing.T) {
	p, err := workload.ByName("511.povray")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(p, 40000, 0)
	runOn := func(m config.Machine) uint64 {
		c, err := New(m, mdp.NewNone(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.MemOrderViolations
	}
	nehalem := runOn(config.Nehalem())
	alder := runOn(config.AlderLake())
	if alder < nehalem {
		t.Errorf("violations should grow with machine size: nehalem %d, alderlake %d",
			nehalem, alder)
	}
}

func newPHASTForTest(t *testing.T) mdp.Predictor {
	t.Helper()
	return corePHAST()
}
