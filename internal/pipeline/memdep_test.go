package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/trace"
)

// TestPartialCoverageHandCrafted builds the minimal multi-store shape: two
// 4-byte stores under one 8-byte load. The load can never forward from a
// single store; it must wait until the covering stores drain to the cache,
// and with the oracle it must neither violate nor report a false
// dependence.
func TestPartialCoverageHandCrafted(t *testing.T) {
	const addr = 0x2000
	var insts []isa.Inst
	for i := 0; i < 200; i++ {
		insts = append(insts,
			isa.Inst{PC: 0x100, Kind: isa.ALU, Dst: 5, Lat: 8},
			isa.Inst{PC: 0x104, Kind: isa.Store, SrcA: 5, Addr: addr, Size: 4},
			isa.Inst{PC: 0x108, Kind: isa.Store, SrcA: 5, Addr: addr + 4, Size: 4},
			isa.Inst{PC: 0x10c, Kind: isa.Load, Dst: 1, Addr: addr, Size: 8},
			isa.Inst{PC: 0x110, Kind: isa.ALU, Dst: 9, SrcA: 9, SrcB: 1, Lat: 1},
		)
	}
	tr := &trace.Trace{Name: "partial", Insts: insts}
	r := run(t, tr, mdp.NewIdeal(), DefaultOptions())
	if r.res.MemOrderViolations != 0 || r.res.FalseDependencies != 0 {
		t.Errorf("oracle on partial coverage: FN=%d FP=%d",
			r.res.MemOrderViolations, r.res.FalseDependencies)
	}
	if r.res.Forwards != 0 {
		t.Errorf("no single store covers the load; forwards = %d", r.res.Forwards)
	}
	if r.res.Committed != uint64(len(insts)) {
		t.Errorf("committed %d/%d", r.res.Committed, len(insts))
	}
}

// TestForwardingWaitsForStoreData: a covering store whose *data* is late
// must delay the dependent load until the data exists (no value can be
// forwarded before it is produced).
func TestForwardingWaitsForStoreData(t *testing.T) {
	const addr = 0x3000
	slow := []isa.Inst{}
	fast := []isa.Inst{}
	for i := 0; i < 200; i++ {
		// Variant A: store data produced by a 20-cycle chain.
		slow = append(slow,
			isa.Inst{PC: 0x100, Kind: isa.ALU, Dst: 6, Lat: 20},
			isa.Inst{PC: 0x104, Kind: isa.Store, SrcB: 6, Addr: addr, Size: 8},
			isa.Inst{PC: 0x108, Kind: isa.Load, Dst: 1, Addr: addr, Size: 8},
			isa.Inst{PC: 0x10c, Kind: isa.ALU, Dst: 9, SrcA: 9, SrcB: 1, Lat: 1},
		)
		// Variant B: store data ready immediately.
		fast = append(fast,
			isa.Inst{PC: 0x100, Kind: isa.ALU, Dst: 6, Lat: 1},
			isa.Inst{PC: 0x104, Kind: isa.Store, SrcB: 6, Addr: addr, Size: 8},
			isa.Inst{PC: 0x108, Kind: isa.Load, Dst: 1, Addr: addr, Size: 8},
			isa.Inst{PC: 0x10c, Kind: isa.ALU, Dst: 9, SrcA: 9, SrcB: 1, Lat: 1},
		)
	}
	slowRes := run(t, &trace.Trace{Name: "slowdata", Insts: slow}, mdp.NewIdeal(), DefaultOptions())
	fastRes := run(t, &trace.Trace{Name: "fastdata", Insts: fast}, mdp.NewIdeal(), DefaultOptions())
	if slowRes.res.Cycles <= fastRes.res.Cycles {
		t.Errorf("late store data must cost cycles: slow %d vs fast %d",
			slowRes.res.Cycles, fastRes.res.Cycles)
	}
	if slowRes.res.Forwards == 0 || fastRes.res.Forwards == 0 {
		t.Error("both variants should forward")
	}
}

// TestStoreBufferBoundsCommit: a burst of stores larger than the store
// buffer must stall commit rather than lose stores; everything still
// commits and drains.
func TestStoreBufferBoundsCommit(t *testing.T) {
	m := config.AlderLake()
	var insts []isa.Inst
	for i := 0; i < m.SQ*3; i++ {
		insts = append(insts, isa.Inst{
			PC: 0x100, Kind: isa.Store, Addr: uint64(0x4000 + i*64), Size: 8,
		})
	}
	insts = append(insts, isa.Inst{PC: 0x200, Kind: isa.Nop})
	tr := &trace.Trace{Name: "burst", Insts: insts}
	r := run(t, tr, mdp.NewIdeal(), DefaultOptions())
	if r.res.Committed != uint64(len(insts)) {
		t.Errorf("committed %d/%d", r.res.Committed, len(insts))
	}
	if r.res.Stores != uint64(m.SQ*3) {
		t.Errorf("stores %d", r.res.Stores)
	}
}

// TestNopsFlowThrough: nops must not consume issue resources or block
// commit.
func TestNopsFlowThrough(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 5000; i++ {
		insts = append(insts, isa.Inst{PC: uint64(0x100 + i*4), Kind: isa.Nop})
	}
	tr := &trace.Trace{Name: "nops", Insts: insts}
	r := run(t, tr, mdp.NewIdeal(), DefaultOptions())
	if r.res.Committed != 5000 {
		t.Errorf("committed %d", r.res.Committed)
	}
	// 12-wide commit on pure nops: should be fast.
	if r.res.IPC() < 4 {
		t.Errorf("nop IPC %.2f suspiciously low", r.res.IPC())
	}
}

// TestDistancePredictionForwards: a correct distance prediction must lead
// to store-to-load forwarding, not a cache access, for a covered load.
func TestDistancePredictionForwards(t *testing.T) {
	tr := appTrace(t, "548.exchange2", 30000)
	ph := run(t, tr, corePHAST(), DefaultOptions())
	id := run(t, tr, mdp.NewIdeal(), DefaultOptions())
	// PHAST should forward nearly as much as the oracle once warm.
	if ph.res.Forwards*10 < id.res.Forwards*9 {
		t.Errorf("PHAST forwards %d vs ideal %d", ph.res.Forwards, id.res.Forwards)
	}
}

// TestLineFiltersDrainToZero runs streams whose loads forward, violate and
// squash (no dependence prediction at all) and, once the store buffer has
// drained, requires every hashed bucket of the store-ring and load filters
// to be back at zero: drain and squash remove exactly the counts store
// dispatch added, and commit and squash those load execution added.
func TestLineFiltersDrainToZero(t *testing.T) {
	for _, app := range []string{"511.povray", "541.leela", "557.xz_1"} {
		c, err := New(config.AlderLake(), mdp.NewNone(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(appTrace(t, app, 20_000))
		if err != nil {
			t.Fatal(err)
		}
		if res.MemOrderViolations == 0 || res.Forwards == 0 || res.Stores == 0 {
			t.Fatalf("%s: violations %d, forwards %d, stores %d: the run exercises too little",
				app, res.MemOrderViolations, res.Forwards, res.Stores)
		}
		if err := c.settleStoreBuffer(); err != nil {
			t.Fatal(err)
		}
		var zero lineFilter
		if c.stLines != zero || c.ldLines != zero {
			t.Errorf("%s: line filters not empty after the run drained (store ring %v, loads %v)",
				app, c.stLines == zero, c.ldLines == zero)
		}
	}
}
