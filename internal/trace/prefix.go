package trace

import (
	"repro/internal/bpred"
	"repro/internal/histutil"
	"repro/internal/isa"
)

// Prefixes holds the per-trace precomputed structures the timing model
// needs at squash time: the history entries of all divergent branches in
// stream order. A Trace is immutable, so its prefixes are computed once and
// shared by every core that replays it (trace interning makes one Trace
// serve many predictor/machine configurations). Nothing here is per-µop: the
// core counts divergent branches and stores as it dispatches.
type Prefixes struct {
	// DivEntries holds the history entries of all divergent branches, in
	// stream order; DivEntries[:k] is the history of a micro-op that k
	// divergent branches precede.
	DivEntries []histutil.Entry
}

// Pre returns the trace's precomputed prefixes, building them on first use.
// Safe for concurrent use; the result must be treated as read-only.
func (t *Trace) Pre() *Prefixes {
	t.preOnce.Do(func() {
		p := &Prefixes{}
		divs := 0
		for i := range t.Insts {
			if t.Insts[i].Divergent() {
				divs++
			}
		}
		p.DivEntries = make([]histutil.Entry, 0, divs)
		for i := range t.Insts {
			if in := &t.Insts[i]; in.Divergent() {
				p.DivEntries = append(p.DivEntries, EntryOf(in))
			}
		}
		t.pre = p
	})
	return t.pre
}

// EntryOf builds the 7-bit divergent-branch history record of §IV-A2 for a
// branch micro-op: type bit, outcome bit, and the low bits of the
// destination actually taken (target if taken, fall-through otherwise).
func EntryOf(in *isa.Inst) histutil.Entry {
	dest := in.Target()
	if !in.Taken {
		dest = in.PC + 4
	}
	return histutil.NewEntry(in.Class.IndirectTarget(), in.Taken, dest)
}

// branchKey names one entry of a trace's branch-outcome memo.
type branchKey struct {
	dir  string
	from int
}

// BranchOutcomes returns the outcomes of a fresh prediction unit with
// direction predictor dir passed over the stream from index from (see
// bpred.Unit.Pass), building them on first use. A front end that fetches
// only the correct path and trains each branch once makes them a function
// of the stream and the predictor, so one pass serves every run of the
// trace. Safe for concurrent use: concurrent first uses build once, and a
// hit allocates nothing. The result must be treated as read-only.
func (t *Trace) BranchOutcomes(dir string, from int) (*bpred.Outcomes, error) {
	out, _, err := t.branches.Get(branchKey{dir: dir, from: from}, func() (*bpred.Outcomes, error) {
		d, err := bpred.NewDir(dir)
		if err != nil {
			return nil, err
		}
		return bpred.NewUnit(d).Pass(t.Insts, from), nil
	})
	return out, err
}
