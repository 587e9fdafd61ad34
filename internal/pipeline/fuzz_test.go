package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/trace"
)

// randomTrace builds a random-but-well-formed micro-op stream: arbitrary
// dataflow over the register file, overlapping memory traffic in a small
// region (to force conflicts, partial overlaps and multi-store shapes), and
// branches of every class with a consistent call stack.
func randomTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	var insts []isa.Inst
	var callDepth int
	for len(insts) < n {
		pc := uint64(0x1000 + len(insts)*4)
		switch r := rng.Intn(100); {
		case r < 35:
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.ALU,
				Dst:  isa.Reg(rng.Intn(isa.NumRegs)),
				SrcA: isa.Reg(rng.Intn(isa.NumRegs)),
				SrcB: isa.Reg(rng.Intn(isa.NumRegs)),
				Lat:  uint8(1 + rng.Intn(20)),
			})
		case r < 60:
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.Load,
				Dst:  isa.Reg(rng.Intn(isa.NumRegs)),
				SrcA: isa.Reg(rng.Intn(isa.NumRegs)),
				Addr: uint64(0x8000 + rng.Intn(256)),
				Size: uint8(1 << rng.Intn(4)),
			})
		case r < 80:
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.Store,
				SrcA: isa.Reg(rng.Intn(isa.NumRegs)),
				SrcB: isa.Reg(rng.Intn(isa.NumRegs)),
				Addr: uint64(0x8000 + rng.Intn(256)),
				Size: uint8(1 << rng.Intn(4)),
			})
		case r < 90:
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.Branch, Class: isa.Cond,
				SrcA:  isa.Reg(rng.Intn(isa.NumRegs)),
				Taken: rng.Intn(2) == 0,
				Addr:  pc + uint64(rng.Intn(64))*4,
			})
		case r < 94:
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.Branch, Class: isa.Indirect,
				SrcA: isa.Reg(rng.Intn(isa.NumRegs)), Taken: true,
				Addr: uint64(0x1000 + rng.Intn(4096)*4),
			})
		case r < 97 && callDepth < 32:
			callDepth++
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.Branch, Class: isa.Call, Taken: true,
				Addr: pc + 4,
			})
		case r < 99 && callDepth > 0:
			callDepth--
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.Branch, Class: isa.Return, Taken: true,
				Addr: pc + 4,
			})
		default:
			insts = append(insts, isa.Inst{PC: pc, Kind: isa.Nop})
		}
	}
	return &trace.Trace{Name: "random", Insts: insts}
}

// TestRandomTracesAllPredictorsAllFilters is the robustness sweep: arbitrary
// well-formed streams must always commit completely, in order, without
// deadlock, under every predictor and every filter mode, and the oracle must
// stay violation-free wherever the forwarding filter is active.
func TestRandomTracesAllPredictorsAllFilters(t *testing.T) {
	preds := func() []mdp.Predictor {
		return []mdp.Predictor{
			mdp.NewIdeal(), mdp.NewNone(), mdp.NewAlwaysWait(),
			mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()),
			mdp.NewNoSQ(mdp.DefaultNoSQConfig()),
			mdp.NewMDPTAGE(mdp.ShortMDPTAGEConfig()),
			mdp.DefaultStoreVector(), mdp.DefaultCHT(), mdp.DefaultPerceptronMDP(),
			corePHAST(),
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		tr := randomTrace(seed, 4000)
		for _, filter := range []FilterMode{FilterFwd, FilterNone, FilterSVW} {
			for _, p := range preds() {
				opt := DefaultOptions()
				opt.Filter = filter
				opt.MaxCycles = 3_000_000
				c, err := New(config.AlderLake(), p, opt)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(tr)
				if err != nil {
					t.Fatalf("seed %d filter %d %s: %v", seed, filter, p.Name(), err)
				}
				if res.Committed != 4000 {
					t.Fatalf("seed %d filter %d %s: committed %d",
						seed, filter, p.Name(), res.Committed)
				}
				if p.Name() == "ideal" && filter == FilterFwd && res.MemOrderViolations != 0 {
					t.Errorf("seed %d: oracle violated %d times", seed, res.MemOrderViolations)
				}
			}
		}
	}
}

// TestRandomTraceOnSmallMachines: the random streams must also survive the
// tight queues of the oldest generation (capacity-stall paths).
func TestRandomTraceOnSmallMachines(t *testing.T) {
	tr := randomTrace(99, 6000)
	for _, m := range []config.Machine{config.Nehalem(), config.Skylake()} {
		c, err := New(m, mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(tr)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if res.Committed != 6000 {
			t.Fatalf("%s: committed %d", m.Name, res.Committed)
		}
	}
}

// FuzzEagerSchedule checks that simulated time does not depend on which
// cycles the scheduler re-evaluates an entry: on a random stream of up to
// 2,000 µops, optionally with register-writing stores, RunContext's row
// under any golden predictor on any golden machine must equal the eager
// stepper's (see stepRun).
func FuzzEagerSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint16, storeDsts bool, pred, machine uint8) {
		tr := randomTrace(seed, 1+int(n)%2000)
		if storeDsts {
			tr = withStoreDsts(tr, seed)
		}
		m := goldenMachines()[int(machine)%len(goldenMachines())]
		p := int(pred) % len(goldenPredictors())
		eagerMatches(t, m, func() mdp.Predictor { return goldenPredictors()[p] }, tr)
	})
}
