package oracle_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fuzzTraceCap bounds fuzzed streams: long enough to fill every queue and
// force capacity stalls, short enough for thousands of executions per
// minute of fuzzing.
const fuzzTraceCap = 1500

// traceFromBytes decodes an arbitrary byte string into a well-formed
// micro-op stream: every 4-byte group becomes one micro-op, memory traffic
// lands in a 256-byte region (dense conflicts, partial overlaps), and
// call/return discipline is kept consistent. Total: any input yields a
// trace the pipeline must fully commit.
func traceFromBytes(data []byte) *trace.Trace {
	var insts []isa.Inst
	callDepth := 0
	reg := func(x byte) isa.Reg { return isa.Reg(int(x) % isa.NumRegs) }
	for i := 0; i+3 < len(data) && len(insts) < fuzzTraceCap; i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		pc := uint64(0x1000 + len(insts)*4)
		switch op % 8 {
		case 0, 1, 2:
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.ALU, Dst: reg(a), SrcA: reg(b), SrcB: reg(c),
				Lat: 1 + op%20,
			})
		case 3, 4:
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.Load, Dst: reg(a), SrcA: reg(b),
				Addr: 0x8000 + uint64(b), Size: 1 << (c % 4),
			})
		case 5, 6:
			insts = append(insts, isa.Inst{
				PC: pc, Kind: isa.Store, SrcA: reg(a), SrcB: reg(c),
				Addr: 0x8000 + uint64(b), Size: 1 << (c % 4),
			})
		default:
			switch {
			case a%4 == 0:
				insts = append(insts, isa.Inst{
					PC: pc, Kind: isa.Branch, Class: isa.Cond, SrcA: reg(b),
					Taken: c&1 == 0, Addr: pc + uint64(c%64)*4,
				})
			case a%4 == 1:
				insts = append(insts, isa.Inst{
					PC: pc, Kind: isa.Branch, Class: isa.Indirect, SrcA: reg(b),
					Taken: true, Addr: uint64(0x1000 + int(c)*4),
				})
			case a%4 == 2 && callDepth < 32:
				callDepth++
				insts = append(insts, isa.Inst{
					PC: pc, Kind: isa.Branch, Class: isa.Call, Taken: true, Addr: pc + 4,
				})
			case callDepth > 0:
				callDepth--
				insts = append(insts, isa.Inst{
					PC: pc, Kind: isa.Branch, Class: isa.Return, Taken: true, Addr: pc + 4,
				})
			default:
				insts = append(insts, isa.Inst{PC: pc, Kind: isa.Nop})
			}
		}
	}
	return &trace.Trace{Name: "fuzz", Insts: insts}
}

// FuzzPipelineTrace throws arbitrary well-formed streams at the pipeline
// with the architectural oracle attached: whatever the dataflow and memory
// shape, every configuration must commit the whole stream with
// oracle-identical results — no divergence, no deadlock, no panic. sel
// rotates the predictor family (every row of sim.Families, at its default
// argument), machine generation and filter mode so one corpus exercises the
// whole configuration cross product.
func FuzzPipelineTrace(f *testing.F) {
	f.Add(uint64(0), []byte("\x03\x01\x10\x02\x05\x02\x10\x02\x03\x03\x10\x03"))
	f.Add(uint64(4), []byte("store then load then branch \x05\x07\x20\x03\x03\x02\x20\x03\x07\x00\x01\x09"))
	f.Add(uint64(11), []byte{5, 1, 0x40, 3, 5, 2, 0x42, 1, 3, 3, 0x40, 3, 7, 2, 0, 0, 7, 3, 0, 0})

	machines := []func() config.Machine{config.Nehalem, config.Skylake, config.AlderLake}
	families := sim.Families()
	filters := []pipeline.FilterMode{pipeline.FilterFwd, pipeline.FilterNone, pipeline.FilterSVW}

	f.Fuzz(func(t *testing.T, sel uint64, data []byte) {
		tr := traceFromBytes(data)
		if tr.Len() == 0 {
			t.Skip()
		}
		pred, err := sim.NewPredictor(families[sel%uint64(len(families))].Name)
		if err != nil {
			t.Fatal(err)
		}
		rest := sel / uint64(len(families))
		opt := pipeline.DefaultOptions()
		opt.Filter = filters[rest/3%uint64(len(filters))]
		opt.MaxCycles = 3_000_000
		ck := oracle.NewChecker(tr)
		opt.Verify = ck.Check
		c, err := pipeline.New(machines[rest%uint64(len(machines))](), pred, opt)
		if err != nil {
			t.Fatal(err)
		}
		run, err := c.Run(tr)
		if err != nil {
			t.Fatalf("sel %d, %d µops: %v", sel, tr.Len(), err)
		}
		if run.Committed != uint64(tr.Len()) || ck.Committed() != tr.Len() {
			t.Fatalf("sel %d: committed %d, verified %d, want %d",
				sel, run.Committed, ck.Committed(), tr.Len())
		}
		if ck.Digest() != oracle.Run(tr).Digest() {
			t.Fatalf("sel %d: retired digest differs from oracle", sel)
		}
	})
}
