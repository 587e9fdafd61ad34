package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/histutil"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// memOp is one load of a recorded stream: the predictor inputs the core
// stamps on it at decode, and the youngest older in-window store it reads
// from (dist < 0: none).
type memOp struct {
	ld   mdp.LoadInfo
	st   mdp.StoreInfo
	dist int
}

// recordLoads walks a stream in program order and records every load with
// its divergent-branch and store counts and its youngest overlapping store
// among the last window stores.
func recordLoads(insts []isa.Inst, window int) []memOp {
	type store struct {
		in   *isa.Inst
		info mdp.StoreInfo
	}
	var ops []memOp
	var ring []store
	var divs, stores uint64
	for i := range insts {
		in := &insts[i]
		switch {
		case in.Divergent():
			divs++
		case in.IsStore():
			ring = append(ring, store{in, mdp.StoreInfo{PC: in.PC, Seq: uint64(i), BranchCount: divs, StoreIndex: stores}})
			if len(ring) > window {
				ring = ring[1:]
			}
			stores++
		case in.IsLoad():
			op := memOp{ld: mdp.LoadInfo{PC: in.PC, Seq: uint64(i), BranchCount: divs, StoreCount: stores}, dist: -1}
			for j := len(ring) - 1; j >= 0; j-- {
				if ring[j].in.Overlaps(in) {
					op.st, op.dist = ring[j].info, int(stores-1-ring[j].info.StoreIndex)
					break
				}
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// BenchmarkPHASTPredictTrain times the default PHAST on a recorded load
// sequence of 541.leela, one load per op: advancing the decode-time history
// (and PHAST's eight folds on it) to the load, the eight-table Predict
// probe, a TrainViolation at the conflict's N+1 history length whenever the
// prediction missed the load's store, and the commit-time confidence
// update.
func BenchmarkPHASTPredictTrain(b *testing.B) {
	prog, err := workload.ByName("541.leela")
	if err != nil {
		b.Fatal(err)
	}
	tr := trace.Generate(prog, 200_000, 0)
	div := tr.Pre().DivEntries
	ops := recordLoads(tr.Insts, config.AlderLake().SQ)
	p := NewDefault()
	d, c := histutil.NewReg(2048), histutil.NewReg(2048)
	p.Bind(d, c)
	d.Bind(div)
	c.Bind(div)
	trains := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := &ops[i%len(ops)]
		if i%len(ops) == 0 {
			d.Seek(0)
			c.Seek(0)
		}
		for d.Count() < op.ld.BranchCount {
			d.Advance()
			c.Advance()
		}
		pred := p.Predict(op.ld, d)
		out := mdp.Outcome{Pred: pred, Waited: pred.Kind == mdp.Distance, ActualDep: op.dist >= 0, ActualDist: op.dist}
		out.TrueDep = out.Waited && pred.Dist == op.dist
		if op.dist >= 0 && !out.TrueDep {
			out.Violated = true
			p.TrainViolation(op.ld, op.st, op.dist, out, c)
			trains++
		}
		p.TrainCommit(op.ld, out, c)
	}
	b.ReportMetric(float64(trains)/float64(b.N), "trains/op")
}
