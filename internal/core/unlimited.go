package core

import (
	"sort"

	"repro/internal/histutil"
	"repro/internal/mdp"
)

// UnlimitedPHAST is the §III-C study version: exact uncompressed histories
// in unbounded maps, so no aliasing is possible. Each conflict trains at its
// own exact history length (N+1); predictions probe, per load PC, exactly
// the lengths that PC has ever trained at and take the longest match. The
// optional MaxHist cap implements the Fig. 11 maximum-history sweep.
type UnlimitedPHAST struct {
	maxHist int
	confMax int

	entries map[string]*mdp.PathEntry
	key     []byte
	// lengths tracks, per load PC, the ascending history lengths with live
	// entries — bounding the probe set exactly as "performing a set of
	// searches" (§IV-A3) with a per-PC set of lengths.
	lengths map[uint64][]int

	// conflictLen counts unique conflicts by first-trained history length
	// (Fig. 10); index = length, last bucket = overflow.
	conflictLen []uint64

	reads, writes uint64
}

var _ mdp.Predictor = (*UnlimitedPHAST)(nil)

// NewUnlimitedPHAST builds the study predictor. maxHist caps the tracked
// history length (0 means the history register capacity, i.e. unlimited for
// all practical purposes).
func NewUnlimitedPHAST(maxHist int) *UnlimitedPHAST {
	return &UnlimitedPHAST{
		maxHist:     maxHist,
		confMax:     15,
		entries:     map[string]*mdp.PathEntry{},
		lengths:     map[uint64][]int{},
		conflictLen: make([]uint64, 513),
	}
}

// Name implements mdp.Predictor.
func (u *UnlimitedPHAST) Name() string { return "unlimited-phast" }

// Bind implements mdp.Predictor (exact histories need no folds).
func (u *UnlimitedPHAST) Bind(decode, commit *histutil.Reg) {}

// Predict implements mdp.Predictor: probe every length this PC has trained
// at, longest first; first confident match wins.
func (u *UnlimitedPHAST) Predict(ld mdp.LoadInfo, hist *histutil.Reg) mdp.Prediction {
	lens := u.lengths[ld.PC]
	u.reads += uint64(len(lens))
	for i := len(lens) - 1; i >= 0; i-- {
		u.key = mdp.AppendPathKey(u.key[:0], ld.PC, hist, lens[i])
		if e, ok := u.entries[string(u.key)]; ok && e.Conf > 0 {
			return mdp.Prediction{Kind: mdp.Distance, Dist: e.Dist, Path: e}
		}
	}
	return mdp.Prediction{Kind: mdp.NoDep}
}

// StoreDispatch implements mdp.Predictor.
func (u *UnlimitedPHAST) StoreDispatch(mdp.StoreInfo) uint64 { return 0 }

// StoreCommit implements mdp.Predictor.
func (u *UnlimitedPHAST) StoreCommit(mdp.StoreInfo) {}

func (u *UnlimitedPHAST) capLen(histLen int, hist *histutil.Reg) int {
	if u.maxHist > 0 && histLen > u.maxHist {
		histLen = u.maxHist
	}
	if histLen > hist.Cap() {
		histLen = hist.Cap()
	}
	return histLen
}

// TrainViolation implements mdp.Predictor: train at exactly N+1 branches.
func (u *UnlimitedPHAST) TrainViolation(ld mdp.LoadInfo, st mdp.StoreInfo, dist int, _ mdp.Outcome, hist *histutil.Reg) {
	if dist < 0 {
		return
	}
	histLen := u.capLen(int(ld.BranchCount-st.BranchCount)+1, hist)
	u.key = mdp.AppendPathKey(u.key[:0], ld.PC, hist, histLen)
	u.writes++
	if e, ok := u.entries[string(u.key)]; ok {
		e.Dist, e.Conf = dist, u.confMax
		return
	}
	k := string(u.key)
	u.entries[k] = &mdp.PathEntry{Key: k, Dist: dist, Conf: u.confMax}
	if histLen < len(u.conflictLen)-1 {
		u.conflictLen[histLen]++
	} else {
		u.conflictLen[len(u.conflictLen)-1]++
	}
	lens := u.lengths[ld.PC]
	pos := sort.SearchInts(lens, histLen)
	if pos == len(lens) || lens[pos] != histLen {
		lens = append(lens, 0)
		copy(lens[pos+1:], lens[pos:])
		lens[pos] = histLen
		u.lengths[ld.PC] = lens
	}
}

// TrainCommit implements mdp.Predictor. Entries are updated in place and
// never removed, so the providing entry is still the one stored.
func (u *UnlimitedPHAST) TrainCommit(_ mdp.LoadInfo, out mdp.Outcome, _ *histutil.Reg) {
	e := out.Pred.Path
	if e == nil || !out.Waited {
		return
	}
	u.writes++
	if out.TrueDep {
		e.Conf = u.confMax
	} else if e.Conf > 0 {
		e.Conf--
	}
}

// SizeBits implements mdp.Predictor (unbounded).
func (u *UnlimitedPHAST) SizeBits() int { return 0 }

// Paths implements mdp.Predictor: distinct (PC, exact path) contexts — the
// Fig. 6b / Fig. 9 metric.
func (u *UnlimitedPHAST) Paths() int { return len(u.entries) }

// Accesses implements mdp.Predictor.
func (u *UnlimitedPHAST) Accesses() (uint64, uint64) { return u.reads, u.writes }

// ConflictLengthCounts returns unique conflicts per history length (index =
// length; the final bucket aggregates longer paths) — Fig. 10's data.
func (u *UnlimitedPHAST) ConflictLengthCounts() []uint64 {
	out := make([]uint64, len(u.conflictLen))
	copy(out, u.conflictLen)
	return out
}
