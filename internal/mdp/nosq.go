package mdp

import "repro/internal/histutil"

// NoSQ implements the store-distance predictor of Sha, Martin & Roth's NoSQ
// microarchitecture (MICRO 2006): two load-indexed set-associative tables.
// One is path insensitive (indexed by load PC only); the other is path
// sensitive, indexed by the load PC hashed with a fixed 8-branch history.
// On a violation both tables allocate; on a prediction both are probed and
// a path-sensitive match wins. Each entry holds a partial tag, a store
// distance, and a confidence counter that gates the prediction.
type NoSQ struct {
	accessCounter
	noStoreHooks
	noPaths

	pi *AssocTable // path-insensitive
	ps *AssocTable // path-sensitive

	histLen   int
	foldIdxD  *histutil.Fold // decode-time index fold
	confMax   uint8
	confThres uint8
	confStep  uint8
}

// NoSQConfig sizes the predictor.
type NoSQConfig struct {
	EntriesPerTable int // total entries per table (sets × 4 ways)
	TagBits         int
	HistLen         int // fixed path-history length (the paper uses 8)
}

// DefaultNoSQConfig returns the Table II configuration: two 2K-entry 4-way
// tables (4K entries total), 22-bit tags, 8-branch history — 19KB.
func DefaultNoSQConfig() NoSQConfig {
	return NoSQConfig{EntriesPerTable: 2048, TagBits: 22, HistLen: 8}
}

// NewNoSQ builds the predictor.
func NewNoSQ(cfg NoSQConfig) *NoSQ {
	sets := cfg.EntriesPerTable / 4
	return &NoSQ{
		pi:        NewAssocTable(sets, 4, cfg.TagBits),
		ps:        NewAssocTable(sets, 4, cfg.TagBits),
		histLen:   cfg.HistLen,
		confMax:   127, // 7-bit counter per Table II
		confThres: 64,
		confStep:  16,
	}
}

// Name implements Predictor.
func (n *NoSQ) Name() string { return "nosq" }

// Tables returns the path-insensitive and path-sensitive tables.
func (n *NoSQ) Tables() []*AssocTable { return []*AssocTable{n.pi, n.ps} }

// nosqFoldWidth is the folded path-history width.
const nosqFoldWidth = 24

// Bind implements Predictor: register the fixed-length prediction fold
// (training folds on demand from the register passed to it).
func (n *NoSQ) Bind(decode, commit *histutil.Reg) {
	n.foldIdxD = decode.NewFold(n.histLen, nosqFoldWidth)
	_ = commit
}

func (n *NoSQ) piHash(pc uint64) uint64 {
	return histutil.Mix(histutil.HashPC(pc), histutil.HashPCTag(pc))
}

func (n *NoSQ) psHash(pc uint64, folded uint64) uint64 {
	return histutil.Mix(histutil.HashPC(pc), folded^histutil.HashPCTag(pc))
}

// Predict implements Predictor: probe both tables; a confident path-
// sensitive match wins over the path-insensitive one.
func (n *NoSQ) Predict(ld LoadInfo, _ *histutil.Reg) Prediction {
	n.reads += 2
	psHash := n.psHash(ld.PC, n.foldIdxD.Value())
	if e, w := n.ps.Lookup(n.ps.SetIndex(psHash), n.ps.TagOf(psHash)); e != nil {
		n.ps.Touch(n.ps.SetIndex(psHash), w)
		if e.Conf >= n.confThres {
			return Prediction{
				Kind: Distance, Dist: int(e.Dist),
				Provider: ProviderRef{Valid: true, Table: 1, Set: n.ps.SetIndex(psHash), Way: uint8(w), Tag: e.Tag},
			}
		}
	}
	piHash := n.piHash(ld.PC)
	if e, w := n.pi.Lookup(n.pi.SetIndex(piHash), n.pi.TagOf(piHash)); e != nil {
		n.pi.Touch(n.pi.SetIndex(piHash), w)
		if e.Conf >= n.confThres {
			return Prediction{
				Kind: Distance, Dist: int(e.Dist),
				Provider: ProviderRef{Valid: true, Table: 0, Set: n.pi.SetIndex(piHash), Way: uint8(w), Tag: e.Tag},
			}
		}
	}
	return Prediction{Kind: NoDep}
}

// TrainViolation implements Predictor: allocate (or refresh) entries in both
// tables with the observed distance at full confidence.
func (n *NoSQ) TrainViolation(ld LoadInfo, st StoreInfo, dist int, _ Outcome, hist *histutil.Reg) {
	if dist < 0 || dist > 127 {
		return // beyond the 7-bit distance field
	}
	n.writes += 2
	piHash := n.piHash(ld.PC)
	n.install(n.pi, piHash, uint8(dist))
	psHash := n.psHash(ld.PC, hist.Fold(n.histLen, nosqFoldWidth))
	n.install(n.ps, psHash, uint8(dist))
}

func (n *NoSQ) install(t *AssocTable, hash uint64, dist uint8) {
	set, tag := t.SetIndex(hash), t.TagOf(hash)
	if e, w := t.Lookup(set, tag); e != nil {
		e.Dist = dist
		e.Conf = n.confMax
		t.Touch(set, w)
		return
	}
	t.Insert(set, Entry{Valid: true, Tag: tag, Dist: dist, Conf: n.confMax})
}

// TrainCommit implements Predictor: reinforce the providing entry when the
// wait was justified; halve its confidence on a false dependence so a
// handful of useless stalls silences it.
func (n *NoSQ) TrainCommit(ld LoadInfo, out Outcome, _ *histutil.Reg) {
	p := out.Pred.Provider
	if !p.Valid || !out.Waited {
		return
	}
	t := n.pi
	if p.Table == 1 {
		t = n.ps
	}
	e := t.At(p.Set, int(p.Way))
	if !e.Valid || e.Tag != p.Tag {
		return // evicted since prediction
	}
	n.writes++
	if out.TrueDep {
		if e.Conf > n.confMax-n.confStep {
			e.Conf = n.confMax
		} else {
			e.Conf += n.confStep
		}
	} else {
		e.Conf /= 2
	}
}

// SizeBits implements Predictor: per Table II each entry carries a tag, a
// 7-bit counter, a 7-bit distance and 2 LRU bits.
func (n *NoSQ) SizeBits() int {
	per := n.pi.Entries() * (n.pi.TagBits() + 7 + 7 + 2)
	return 2 * per
}
