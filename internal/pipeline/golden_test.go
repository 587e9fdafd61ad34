package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/histutil"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/trace"
)

// goldenRandomRowsSHA256 pins the stats.Run rows of the edge-case matrix in
// TestGoldenRandomRows bit for bit. Like sim's TestGoldenRows it exists to
// prove that a pure-speed change to the issue scheduler left every counter
// untouched; unlike it, it reaches the corners the generated workloads never
// do: WaitAll and Vector gates, register-writing stores, a ROB ring narrower
// than one bitset word, and wake bounds far beyond any short horizon. A
// change meant to alter simulation output re-records it in the same commit
// and bumps sim.BehaviorVersion — or, if only the streams with
// register-writing stores move (a shape only decoded traces have),
// sim.TraceVersion, which salts the run-cache keys of trace: apps alone.
const goldenRandomRowsSHA256 = "79579477e0b0c1e90bab351cb997da67f856127393cf7dad3dbd375a9fc17f39"

// withStoreDsts returns a copy of tr in which every store also writes a
// register — a shape only decoded traces produce, and the one producer
// whose result can be ready in its own issue cycle (see srcReadyAt).
func withStoreDsts(tr *trace.Trace, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	insts := append([]isa.Inst(nil), tr.Insts...)
	for i := range insts {
		if insts[i].Kind == isa.Store {
			insts[i].Dst = isa.Reg(1 + rng.Intn(isa.NumRegs-1))
		}
	}
	return &trace.Trace{Name: tr.Name + "-stdst", Insts: insts}
}

// goldenMachines are the edge-case machines: the headline core, a tiny
// core whose ROB ring (32 slots) is narrower than one 64-bit word with a
// 700-cycle DRAM, and the headline core with a 900-cycle DRAM.
func goldenMachines() []config.Machine {
	tiny := config.Nehalem()
	tiny.Name = "rob20-mem700"
	tiny.ROB, tiny.IQ, tiny.LQ, tiny.SQ = 20, 12, 8, 6
	tiny.MemLatency = 700
	slow := config.AlderLake()
	slow.Name = "alderlake-mem900"
	slow.MemLatency = 900
	return []config.Machine{config.AlderLake(), tiny, slow}
}

// goldenPredictors are the ten predictors of the random-trace robustness
// sweep — the only coverage of the WaitAll and Vector gate kinds.
func goldenPredictors() []mdp.Predictor {
	return []mdp.Predictor{
		mdp.NewIdeal(), mdp.NewNone(), mdp.NewAlwaysWait(),
		mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()),
		mdp.NewNoSQ(mdp.DefaultNoSQConfig()),
		mdp.NewMDPTAGE(mdp.ShortMDPTAGEConfig()),
		mdp.DefaultStoreVector(), mdp.DefaultCHT(), mdp.DefaultPerceptronMDP(),
		corePHAST(),
	}
}

// TestGoldenRandomRows hashes the JSON rows of random streams (seeds 1–4
// at 3k µops, seeds 3 and 4 with register-writing stores) × the ten
// predictors × all three filters × goldenMachines.
func TestGoldenRandomRows(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 4; seed++ {
		tr := randomTrace(seed, 3000)
		if seed > 2 {
			tr = withStoreDsts(tr, seed)
		}
		for _, m := range goldenMachines() {
			for _, filter := range []FilterMode{FilterFwd, FilterNone, FilterSVW} {
				for _, p := range goldenPredictors() {
					opt := DefaultOptions()
					opt.Filter = filter
					c, err := New(m, p, opt)
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.Run(tr)
					if err != nil {
						t.Fatalf("seed %d %s filter %d %s: %v", seed, m.Name, filter, p.Name(), err)
					}
					row, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(append(row, '\n'))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRandomRowsSHA256 {
		t.Errorf("stats.Run rows of the random edge-case matrix changed:\n got  %s\n want %s", got, goldenRandomRowsSHA256)
	}
}

// goldenGateRowsSHA256 pins the rows of TestGoldenGateRows; the eager
// stepper, which evaluates every entry every cycle, reproduces them (see
// TestEagerScheduleMatchesRun).
const goldenGateRowsSHA256 = "def617036f48730a3d54331ad6913977e8d2a674f534575519fad93c04af3e64"

// gatePredictor gives every load a single-store or multi-store gate of one
// kind, spread over store distances 0–2 by PC, so that the gate paths the
// trained predictors reach only occasionally run on every load.
type gatePredictor struct {
	mdp.Predictor
	kind mdp.PredKind
}

func (gatePredictor) Name() string { return "gate" }

func (p gatePredictor) Predict(ld mdp.LoadInfo, _ *histutil.Reg) mdp.Prediction {
	d := int(ld.PC>>2) % 3
	switch p.kind {
	case mdp.StoreSeq:
		return mdp.Prediction{Kind: mdp.StoreSeq, Seq: ld.Seq - 1 - uint64(d)}
	case mdp.Vector:
		return mdp.Prediction{Kind: mdp.Vector, Mask: 1<<d | 1<<(d+2)}
	}
	return mdp.Prediction{Kind: p.kind, Dist: d}
}

// serialisingPredictor adds Store Sets serialisation: half of the stores
// wait for the store dispatched two sequence numbers before them.
type serialisingPredictor struct{ mdp.Predictor }

func (serialisingPredictor) StoreDispatch(st mdp.StoreInfo) uint64 {
	if st.Seq > 2 && st.PC&8 == 0 {
		return st.Seq - 2
	}
	return 0
}

// gateTrace builds a short store-heavy stream over six registers in which
// every store also writes a register, so gated loads wait on stores whose
// address and data come from other, unissued stores.
func gateTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	var insts []isa.Inst
	reg := func() isa.Reg { return isa.Reg(1 + rng.Intn(6)) }
	for len(insts) < n {
		pc := uint64(0x1000 + len(insts)*4)
		switch r := rng.Intn(100); {
		case r < 35:
			insts = append(insts, isa.Inst{PC: pc, Kind: isa.ALU, Dst: reg(), SrcA: reg(), SrcB: reg(), Lat: uint8(1 + rng.Intn(3))})
		case r < 60:
			insts = append(insts, isa.Inst{PC: pc, Kind: isa.Load, Dst: reg(), SrcA: reg(), Addr: 0x8000 + 8*uint64(rng.Intn(8)), Size: 8})
		case r < 95:
			insts = append(insts, isa.Inst{PC: pc, Kind: isa.Store, Dst: reg(), SrcA: reg(), SrcB: reg(), Addr: 0x8000 + 8*uint64(rng.Intn(8)), Size: 8})
		default:
			insts = append(insts, isa.Inst{PC: pc, Kind: isa.Nop})
		}
	}
	return &trace.Trace{Name: "gates", Insts: insts}
}

// TestGoldenGateRows hashes the rows of gateTrace streams × every gate kind,
// with and without Store Sets serialisation, × alderlake, nehalem and a
// ROB-20 core. It reaches what the other digests do not: single-store gates
// and Store Sets waits registered with a store whose address and data come
// from other, unissued register-writing stores (see storeDoneBound).
func TestGoldenGateRows(t *testing.T) {
	tiny := config.Nehalem()
	tiny.Name = "rob20"
	tiny.ROB, tiny.IQ, tiny.LQ, tiny.SQ = 20, 12, 8, 6
	h := sha256.New()
	for seed := int64(1); seed <= 60; seed++ {
		tr := gateTrace(seed, 500)
		for _, m := range []config.Machine{config.AlderLake(), config.Nehalem(), tiny} {
			for _, kind := range []mdp.PredKind{mdp.Distance, mdp.StoreSeq, mdp.Vector, mdp.WaitAll} {
				for _, serialise := range []bool{false, true} {
					var p mdp.Predictor = gatePredictor{mdp.NewNone(), kind}
					if serialise {
						p = serialisingPredictor{p}
					}
					c, err := New(m, p, DefaultOptions())
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.Run(tr)
					if err != nil {
						t.Fatalf("seed %d %s kind %d: %v", seed, m.Name, kind, err)
					}
					row, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(append(row, '\n'))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenGateRowsSHA256 {
		t.Errorf("stats.Run rows of the gate matrix changed:\n got  %s\n want %s", got, goldenGateRowsSHA256)
	}
}
