package mdp

import "repro/internal/histutil"

// MDPTAGE implements Perais & Seznec's TAGE-based memory dependence
// predictor (PACT 2018's Omnipredictor, used standalone as in the paper's
// evaluation): tagged components indexed with geometrically increasing
// branch history lengths. An entry holds a partial tag, a usefulness bit
// that gates the prediction, and a store distance widened to 7 bits so all
// in-flight distances are representable.
//
// Training is the brute-force exploration the paper criticises: a conflict
// with no prior prediction allocates at the shortest history; a conflict
// despite a prediction allocates at a longer history than the provider.
// Usefulness bits are cleared periodically, and a false dependence resets
// the providing entry with probability 1/256.
type MDPTAGE struct {
	accessCounter
	noStoreHooks
	noPaths

	name     string
	tables   []*AssocTable
	hists    []int
	tagBits  []int
	foldsD   []*histutil.Fold
	foldWide int

	uResetEvery uint64
	lruBits     int
	accesses    uint64
	rng         uint64
}

// MDPTAGEConfig sizes the predictor.
type MDPTAGEConfig struct {
	Name        string
	Histories   []int // per component, shortest first
	Entries     []int // entries per component (4-way tables)
	TagBits     []int // per component
	UResetEvery uint64
	// LRUBits charged per entry in SizeBits. Table II charges replacement
	// state for MDP-TAGE-S but not for the original MDP-TAGE.
	LRUBits int
}

// DefaultMDPTAGEConfig returns the Table II standalone MDP-TAGE: 12
// components over the (6, 2000) geometric series, 16K entries total,
// 7–15-bit tags — 38.625KB.
func DefaultMDPTAGEConfig() MDPTAGEConfig {
	// 6 × (2000/6)^(i/11), rounded.
	hists := []int{6, 10, 17, 29, 50, 85, 146, 250, 428, 733, 1255, 2000}
	entries := []int{2048, 2048, 2048, 2048, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024}
	tags := []int{7, 8, 10, 11, 12, 12, 13, 13, 14, 14, 15, 15}
	return MDPTAGEConfig{
		Name: "mdptage", Histories: hists, Entries: entries, TagBits: tags,
		UResetEvery: 512 << 10,
	}
}

// ShortMDPTAGEConfig returns MDP-TAGE-S: the same predictor restructured
// with PHAST's table count and history lengths (Table II: 8 tables, 4K
// entries, 16-bit tags — 13KB), isolating the value of PHAST's history
// length *selection* from its table organisation.
func ShortMDPTAGEConfig() MDPTAGEConfig {
	hists := []int{0, 2, 4, 6, 8, 12, 16, 32}
	entries := make([]int, 8)
	tags := make([]int, 8)
	for i := range entries {
		entries[i] = 512
		tags[i] = 16
	}
	return MDPTAGEConfig{
		Name: "mdptage-s", Histories: hists, Entries: entries, TagBits: tags,
		UResetEvery: 512 << 10, LRUBits: 2,
	}
}

// NewMDPTAGE builds the predictor.
func NewMDPTAGE(cfg MDPTAGEConfig) *MDPTAGE {
	if len(cfg.Histories) != len(cfg.Entries) || len(cfg.Entries) != len(cfg.TagBits) {
		panic("mdp: MDPTAGE config slices must have equal length")
	}
	m := &MDPTAGE{
		name:        cfg.Name,
		hists:       cfg.Histories,
		tagBits:     cfg.TagBits,
		uResetEvery: cfg.UResetEvery,
		lruBits:     cfg.LRUBits,
		foldWide:    24,
		rng:         0xdeadbeefcafef00d,
	}
	for i, n := range cfg.Entries {
		m.tables = append(m.tables, NewAssocTable(n/4, 4, cfg.TagBits[i]))
	}
	return m
}

// Name implements Predictor.
func (m *MDPTAGE) Name() string { return m.name }

// Tables returns the tagged components, shortest history first.
func (m *MDPTAGE) Tables() []*AssocTable { return m.tables }

// Bind implements Predictor: prediction folds are incremental on the
// decode-time register; allocation folds on demand from the register passed
// to TrainViolation (allocations only happen on violations, so the on-demand
// cost is negligible).
func (m *MDPTAGE) Bind(decode, commit *histutil.Reg) {
	for _, h := range m.hists {
		m.foldsD = append(m.foldsD, decode.NewFold(h, m.foldWide))
	}
	_ = commit
}

func (m *MDPTAGE) hash(pc uint64, comp int, folded uint64) uint64 {
	return histutil.Mix(histutil.HashPC(pc)^uint64(comp)*0x9e37, folded^histutil.HashPCTag(pc)<<1)
}

// foldOf folds the training history for component c from the given
// register, capping at the register capacity.
func (m *MDPTAGE) foldOf(c int, hist *histutil.Reg) uint64 {
	n := m.hists[c]
	if n > hist.Cap() {
		n = hist.Cap()
	}
	return hist.Fold(n, m.foldWide)
}

func (m *MDPTAGE) nextRand() uint64 {
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	return m.rng
}

// Predict implements Predictor: the longest-history tag match with a set
// usefulness bit provides the distance.
func (m *MDPTAGE) Predict(ld LoadInfo, _ *histutil.Reg) Prediction {
	m.reads += uint64(len(m.tables))
	m.tick()
	for c := len(m.tables) - 1; c >= 0; c-- {
		t := m.tables[c]
		h := m.hash(ld.PC, c, m.foldsD[c].Value())
		set, tag := t.SetIndex(h), t.TagOf(h)
		if e, w := t.Lookup(set, tag); e != nil {
			t.Touch(set, w)
			if e.U != 0 {
				return Prediction{
					Kind: Distance, Dist: int(e.Dist),
					Provider: ProviderRef{Valid: true, Table: c, Set: set, Way: uint8(w), Tag: tag},
				}
			}
		}
	}
	return Prediction{Kind: NoDep}
}

func (m *MDPTAGE) tick() {
	m.accesses++
	if m.uResetEvery != 0 && m.accesses%m.uResetEvery == 0 {
		for _, t := range m.tables {
			for s := uint32(0); int(s) < t.Sets(); s++ {
				for w := 0; w < t.Ways(); w++ {
					t.At(s, w).U = 0
				}
			}
		}
	}
}

// TrainViolation implements Predictor. If the squashed load had no
// prediction, allocate at the shortest history; if it had a (wrong)
// prediction from component c, allocate at a longer component. This is the
// geometric exploration PHAST's length selection avoids.
func (m *MDPTAGE) TrainViolation(ld LoadInfo, st StoreInfo, dist int, out Outcome, hist *histutil.Reg) {
	if dist < 0 || dist > 127 {
		return
	}
	from := 0
	if p := out.Pred.Provider; p.Valid && p.Table+1 < len(m.tables) {
		from = p.Table + 1
	}
	m.allocate(ld, from, uint8(dist), hist)
}

func (m *MDPTAGE) allocate(ld LoadInfo, from int, dist uint8, hist *histutil.Reg) {
	for c := from; c < len(m.tables); c++ {
		t := m.tables[c]
		h := m.hash(ld.PC, c, m.foldOf(c, hist))
		set, tag := t.SetIndex(h), t.TagOf(h)
		if e, w := t.Lookup(set, tag); e != nil {
			// Same context already tracked here: refresh it.
			e.Dist, e.U = dist, 1
			t.Touch(set, w)
			m.writes++
			return
		}
		if v := t.Victim(set); !t.At(set, v).Valid || t.At(set, v).U == 0 {
			t.Insert(set, Entry{Valid: true, Tag: tag, Dist: dist, U: 1})
			m.writes++
			return
		}
	}
	// All candidate entries useful: degrade one at random to make room later.
	c := from + int(m.nextRand())%(len(m.tables)-from)
	t := m.tables[c]
	h := m.hash(ld.PC, c, m.foldOf(c, hist))
	set := t.SetIndex(h)
	t.At(set, t.Victim(set)).U = 0
	m.writes++
}

// TrainCommit implements Predictor: a correct wait refreshes the provider; a
// false dependence resets it with probability 1/256 (the paper's tuned
// forgetting rate) — otherwise the stale entry keeps stalling the load.
func (m *MDPTAGE) TrainCommit(ld LoadInfo, out Outcome, _ *histutil.Reg) {
	p := out.Pred.Provider
	if !p.Valid {
		return
	}
	e := m.tables[p.Table].At(p.Set, int(p.Way))
	if !e.Valid || e.Tag != p.Tag {
		return
	}
	if out.Waited && out.TrueDep {
		e.U = 1
		m.writes++
	} else if out.FalsePositive() {
		if m.nextRand()&255 == 0 {
			m.tables[p.Table].Invalidate(p.Set, int(p.Way))
			m.writes++
		}
	}
}

// SizeBits implements Predictor: per entry a tag, a 7-bit distance and the
// usefulness bit, plus the configuration's replacement-state charge (Table
// II charges 2 LRU bits for MDP-TAGE-S and none for MDP-TAGE).
func (m *MDPTAGE) SizeBits() int {
	total := 0
	for _, t := range m.tables {
		total += t.Entries() * (t.TagBits() + 7 + 1 + m.lruBits)
	}
	return total
}
