package bpred

import "repro/internal/isa"

// Unit is the front-end branch prediction unit the pipeline queries: a
// direction predictor for conditional branches, a target cache for indirect
// jumps/calls, and a return address stack for returns. Direct jumps and
// calls are always predicted correctly (their targets are static).
type Unit struct {
	dir    DirPredictor
	itc    *TargetCache
	ras    []uint64
	rasCap int

	// Stats.
	Branches    uint64
	Mispredicts uint64
}

// NewUnit builds a prediction unit around the given direction predictor.
func NewUnit(dir DirPredictor) *Unit {
	return &Unit{dir: dir, itc: NewTargetCache(11), rasCap: 64}
}

// Name returns the direction predictor's name.
func (u *Unit) Name() string { return u.dir.Name() }

// PredictAndTrain processes one fetched branch in program order: it
// predicts, trains with the resolved outcome from the trace, and reports
// whether the prediction was wrong (i.e. the front end would have redirected
// after this branch resolves). The trace-driven front end always fetches the
// correct path; mispredictions only cost redirect bubbles.
func (u *Unit) PredictAndTrain(in *isa.Inst) (mispredicted bool) {
	u.Branches++
	switch in.Class {
	case isa.Cond:
		pred := u.dir.Predict(in.PC)
		u.dir.Update(in.PC, in.Taken)
		mispredicted = pred != in.Taken
	case isa.Direct:
		// Static target; always right.
	case isa.Call:
		u.push(in.PC + 4)
	case isa.Indirect, isa.IndirectCall:
		target, ok := u.itc.Predict(in.PC)
		mispredicted = !ok || target != in.Target()
		u.itc.Update(in.PC, in.Target())
		if in.Class == isa.IndirectCall {
			u.push(in.PC + 4)
		}
	case isa.Return:
		target, ok := u.pop()
		mispredicted = !ok || target != in.Target()
	}
	if mispredicted {
		u.Mispredicts++
	}
	return mispredicted
}

func (u *Unit) push(addr uint64) {
	if len(u.ras) == u.rasCap {
		copy(u.ras, u.ras[1:])
		u.ras = u.ras[:u.rasCap-1]
	}
	u.ras = append(u.ras, addr)
}

func (u *Unit) pop() (uint64, bool) {
	if len(u.ras) == 0 {
		return 0, false
	}
	v := u.ras[len(u.ras)-1]
	u.ras = u.ras[:len(u.ras)-1]
	return v, true
}

// Outcomes records a functional pass of a Unit over a stream (see Pass).
type Outcomes struct {
	// Miss has bit i set when the branch at stream index i was mispredicted.
	Miss []uint64
	// Branches and Mispredicts count the branches the pass predicted and the
	// mispredicted ones among them.
	Branches, Mispredicts uint64
}

// Missed reports whether the branch at stream index i was mispredicted.
func (o *Outcomes) Missed(i int) bool { return o.Miss[i>>6]&(1<<(i&63)) != 0 }

// Pass runs PredictAndTrain on every branch of insts[from:], in program
// order, and returns their outcomes indexed by position in insts. On a
// front end that fetches only the correct path and trains each branch once,
// this is the whole of the unit's work, so it can run ahead of the timing
// model; u is left advanced over the stream.
func (u *Unit) Pass(insts []isa.Inst, from int) *Outcomes {
	o := &Outcomes{Miss: make([]uint64, (len(insts)+63)/64)}
	branches, mispredicts := u.Branches, u.Mispredicts
	for i := from; i < len(insts); i++ {
		if insts[i].IsBranch() && u.PredictAndTrain(&insts[i]) {
			o.Miss[i>>6] |= 1 << (i & 63)
		}
	}
	o.Branches, o.Mispredicts = u.Branches-branches, u.Mispredicts-mispredicts
	return o
}

// MPKIOver replays a stream through a fresh direction-prediction unit and
// returns mispredicts per kilo instruction — the Fig. 1 branch timeline
// metric (no timing model needed).
func MPKIOver(dir DirPredictor, insts []isa.Inst) float64 {
	if len(insts) == 0 {
		return 0
	}
	return float64(NewUnit(dir).Pass(insts, 0).Mispredicts) * 1000 / float64(len(insts))
}
