package pipeline

import (
	"context"
	"testing"

	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/trace"
)

// checkLive compares outcomes got, read by a run of insts, with the live
// sequence the front end produced when it called PredictAndTrain at each
// branch's first fetch: u predicts every branch but one at index 0, in
// order (fetch's first-fetch test is index > maxFetched, which starts at 0).
func checkLive(t *testing.T, what string, u *bpred.Unit, insts []isa.Inst, got *bpred.Outcomes) {
	t.Helper()
	var branches, mispredicts uint64
	for i := range insts {
		miss := false
		if i > 0 && insts[i].IsBranch() {
			branches++
			if miss = u.PredictAndTrain(&insts[i]); miss {
				mispredicts++
			}
		}
		if got.Missed(i) != miss {
			t.Fatalf("%s: index %d mispredicted %v, live sequence says %v", what, i, got.Missed(i), miss)
		}
	}
	if got.Branches != branches || got.Mispredicts != mispredicts {
		t.Fatalf("%s: %d branches, %d mispredicts; live sequence %d, %d",
			what, got.Branches, got.Mispredicts, branches, mispredicts)
	}
	if mispredicts == 0 {
		t.Fatalf("%s: no mispredicts; the comparison proves little", what)
	}
}

// TestBranchOutcomes checks, for every direction predictor, the outcomes
// fetch reads against the live PredictAndTrain sequence: the trace memo on a
// stream whose index 0 is a branch (which is never predicted or counted),
// and a measured slice after WarmContext, which must continue the unit the
// warm stream advanced. The rows' branch counts are the outcomes' counts.
func TestBranchOutcomes(t *testing.T) {
	first := isa.Inst{PC: 0xffc, Kind: isa.Branch, Class: isa.Cond, Taken: false, Addr: 0x2000}
	tr := &trace.Trace{Name: "branch-first", Insts: append([]isa.Inst{first}, randomTrace(5, 4000).Insts...)}
	// Split where the measured slice, too, starts with a branch.
	k := 2000
	for !tr.Insts[k].IsBranch() {
		k++
	}
	warm := tr.Slice(trace.Interval{Start: 0, End: k})
	slice := tr.Slice(trace.Interval{Start: k, End: tr.Len()})
	for _, name := range bpred.DirNames() {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.BranchPredictor = name
			fresh := func() *bpred.Unit {
				d, err := bpred.NewDir(name)
				if err != nil {
					t.Fatal(err)
				}
				return bpred.NewUnit(d)
			}

			memo, err := tr.BranchOutcomes(name, firstPredicted)
			if err != nil {
				t.Fatal(err)
			}
			checkLive(t, "memo", fresh(), tr.Insts, memo)
			c, err := New(config.AlderLake(), mdp.NewNone(), opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if c.br != memo || res.Branches != memo.Branches || res.BranchMispredicts != memo.Mispredicts {
				t.Fatalf("fresh run: %d branches, %d mispredicts; memo %d, %d",
					res.Branches, res.BranchMispredicts, memo.Branches, memo.Mispredicts)
			}

			live := fresh()
			warmMemo, err := warm.BranchOutcomes(name, firstPredicted)
			if err != nil {
				t.Fatal(err)
			}
			checkLive(t, "warm", live, warm.Insts, warmMemo)
			c, err = New(config.AlderLake(), mdp.NewNone(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WarmContext(context.Background(), warm); err != nil {
				t.Fatal(err)
			}
			res, err = c.Run(slice)
			if err != nil {
				t.Fatal(err)
			}
			checkLive(t, "slice after warm-up", live, slice.Insts, c.br)
			if res.Branches != c.br.Branches || res.BranchMispredicts != c.br.Mispredicts {
				t.Fatalf("warm-started run: %d branches, %d mispredicts; outcomes %d, %d",
					res.Branches, res.BranchMispredicts, c.br.Branches, c.br.Mispredicts)
			}
		})
	}
}
