package mdp

import (
	"encoding/binary"

	"repro/internal/histutil"
)

// Unlimited (aliasing-free) predictors for the §III-C study (Fig. 6): exact
// uncompressed histories stored in maps, so every effect measured is due to
// the training policy, never to table capacity or tag aliasing. Paths()
// reports how many distinct (history, PC) contexts each tracks — Fig. 6b.

// AppendPathKey appends the exact map key of a load PC and its n youngest
// history entries to b: the PC in eight bytes, then hist.Key(n). Built into
// a reused buffer, a key probes a map without allocating; only an inserted
// key is copied into a string.
func AppendPathKey(b []byte, pc uint64, hist *histutil.Reg, n int) []byte {
	return hist.AppendKey(binary.LittleEndian.AppendUint64(b, pc), n)
}

// UnlimitedNoSQ is the NoSQ predictor with unbounded, alias-free tables and
// a configurable fixed history length (the x axis of Fig. 6).
type UnlimitedNoSQ struct {
	accessCounter
	noBind
	noStoreHooks

	histLen int
	pi      map[uint64]*PathEntry // Key "" marks a PC-only entry
	ps      map[string]*PathEntry
	key     []byte

	confMax, confThres, confStep int
}

// NewUnlimitedNoSQ builds the predictor with the given history length.
func NewUnlimitedNoSQ(histLen int) *UnlimitedNoSQ {
	return &UnlimitedNoSQ{
		histLen: histLen,
		pi:      map[uint64]*PathEntry{},
		ps:      map[string]*PathEntry{},
		confMax: 127, confThres: 64, confStep: 16,
	}
}

// Name implements Predictor.
func (n *UnlimitedNoSQ) Name() string { return "unlimited-nosq" }

// HistLen returns the fixed history length.
func (n *UnlimitedNoSQ) HistLen() int { return n.histLen }

// Predict implements Predictor.
func (n *UnlimitedNoSQ) Predict(ld LoadInfo, hist *histutil.Reg) Prediction {
	n.reads += 2
	n.key = AppendPathKey(n.key[:0], ld.PC, hist, n.histLen)
	if e, ok := n.ps[string(n.key)]; ok && e.Conf >= n.confThres {
		return Prediction{Kind: Distance, Dist: e.Dist, Path: e}
	}
	if e, ok := n.pi[ld.PC]; ok && e.Conf >= n.confThres {
		return Prediction{Kind: Distance, Dist: e.Dist, Path: e}
	}
	return Prediction{Kind: NoDep}
}

// TrainViolation implements Predictor.
func (n *UnlimitedNoSQ) TrainViolation(ld LoadInfo, st StoreInfo, dist int, _ Outcome, hist *histutil.Reg) {
	if dist < 0 {
		return
	}
	n.writes += 2
	key := string(AppendPathKey(n.key[:0], ld.PC, hist, n.histLen))
	n.ps[key] = &PathEntry{Key: key, Dist: dist, Conf: n.confMax}
	n.pi[ld.PC] = &PathEntry{Dist: dist, Conf: n.confMax}
}

// TrainCommit implements Predictor: it trains the entry now stored where
// the providing one was (training since the prediction may have replaced
// it).
func (n *UnlimitedNoSQ) TrainCommit(ld LoadInfo, out Outcome, hist *histutil.Reg) {
	if out.Pred.Path == nil || !out.Waited {
		return
	}
	var e *PathEntry
	if k := out.Pred.Path.Key; k != "" {
		e = n.ps[k]
	} else {
		e = n.pi[ld.PC]
	}
	if e == nil {
		return
	}
	n.writes++
	if out.TrueDep {
		e.Conf += n.confStep
		if e.Conf > n.confMax {
			e.Conf = n.confMax
		}
	} else {
		e.Conf /= 2
	}
}

// SizeBits implements Predictor (unbounded).
func (n *UnlimitedNoSQ) SizeBits() int { return 0 }

// Paths implements Predictor: distinct path-sensitive contexts tracked.
func (n *UnlimitedNoSQ) Paths() int { return len(n.ps) }

// UnlimitedMDPTAGE is MDP-TAGE with unbounded alias-free components over
// the (6, 2000) geometric history series. It keeps MDP-TAGE's training
// policy: allocate at the shortest length, re-allocate longer on a
// violation-despite-prediction — so its path count explodes exactly as the
// paper describes, even without capacity pressure.
type UnlimitedMDPTAGE struct {
	accessCounter
	noBind
	noStoreHooks

	hists  []int
	tables []map[string]*PathEntry
	key    []byte
	rng    uint64
}

// NewUnlimitedMDPTAGE builds the predictor.
func NewUnlimitedMDPTAGE() *UnlimitedMDPTAGE {
	hists := []int{6, 10, 17, 29, 50, 85, 146, 250, 428, 733, 1255, 2000}
	u := &UnlimitedMDPTAGE{hists: hists, rng: 0x9e3779b97f4a7c15}
	for range hists {
		u.tables = append(u.tables, map[string]*PathEntry{})
	}
	return u
}

// Name implements Predictor.
func (u *UnlimitedMDPTAGE) Name() string { return "unlimited-mdptage" }

// Predict implements Predictor: longest-history exact match with u set. The
// longest key is built once; each shorter one, probed after it, is its tail
// with the PC and length written over the older entries in front.
func (u *UnlimitedMDPTAGE) Predict(ld LoadInfo, hist *histutil.Reg) Prediction {
	u.reads += uint64(len(u.tables))
	longest := min(u.hists[len(u.hists)-1], hist.Cap())
	u.key = AppendPathKey(u.key[:0], ld.PC, hist, longest)
	for c := len(u.tables) - 1; c >= 0; c-- {
		n := min(u.hists[c], hist.Cap())
		key := u.key[longest-n:]
		binary.LittleEndian.PutUint64(key, ld.PC)
		key[8], key[9] = byte(n), byte(n>>8)
		if e, ok := u.tables[c][string(key)]; ok && e.U {
			return Prediction{
				Kind: Distance, Dist: e.Dist,
				Provider: ProviderRef{Valid: true, Table: c},
				Path:     e,
			}
		}
	}
	return Prediction{Kind: NoDep}
}

// TrainViolation implements Predictor.
func (u *UnlimitedMDPTAGE) TrainViolation(ld LoadInfo, st StoreInfo, dist int, out Outcome, hist *histutil.Reg) {
	if dist < 0 {
		return
	}
	from := 0
	if p := out.Pred.Provider; p.Valid && p.Table+1 < len(u.tables) {
		from = p.Table + 1
	}
	key := string(AppendPathKey(u.key[:0], ld.PC, hist, min(u.hists[from], hist.Cap())))
	u.tables[from][key] = &PathEntry{Key: key, Dist: dist, U: true}
	u.writes++
}

// TrainCommit implements Predictor: false dependencies reset the entry now
// stored where the providing one was with probability 1/256, MDP-TAGE's
// forgetting rate.
func (u *UnlimitedMDPTAGE) TrainCommit(ld LoadInfo, out Outcome, hist *histutil.Reg) {
	p := out.Pred.Provider
	if !p.Valid || out.Pred.Path == nil {
		return
	}
	e := u.tables[p.Table][out.Pred.Path.Key]
	if e == nil {
		return
	}
	if out.FalsePositive() {
		u.rng ^= u.rng << 13
		u.rng ^= u.rng >> 7
		u.rng ^= u.rng << 17
		if u.rng&255 == 0 {
			delete(u.tables[p.Table], out.Pred.Path.Key)
			u.writes++
		}
	}
}

// SizeBits implements Predictor (unbounded).
func (u *UnlimitedMDPTAGE) SizeBits() int { return 0 }

// Paths implements Predictor: total contexts across all components.
func (u *UnlimitedMDPTAGE) Paths() int {
	total := 0
	for _, t := range u.tables {
		total += len(t)
	}
	return total
}
