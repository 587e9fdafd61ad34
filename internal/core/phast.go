// Package core implements PHAST (PatH-Aware STore-distance), the paper's
// contribution: a context-sensitive memory dependence predictor trained, on
// each conflict, with exactly the history that determines it — the N+1
// divergent branches covering the path from the conflicting store to the
// dependent load — and the store distance of that conflict.
//
// The cost-effective implementation (§IV-B) uses one 4-way table per
// history length in the geometric-like sequence (0, 2, 4, 6, 8, 12, 16, 32);
// lengths not in the sequence truncate to the next shorter one. Entries
// carry a 16-bit tag, a 7-bit store distance, a 4-bit confidence counter and
// 2 LRU bits; with 128 sets per table this is the paper's 14.5KB budget.
// UnlimitedPHAST (unlimited.go) is the aliasing-free study version.
package core

import (
	"repro/internal/histutil"
	"repro/internal/mdp"
)

// Histories is the paper's geometric-like history length sequence.
var Histories = []int{0, 2, 4, 6, 8, 12, 16, 32}

// Config sizes a PHAST predictor.
type Config struct {
	// Histories holds the per-table history lengths, ascending.
	Histories []int
	// Sets is the number of sets per table (power of two).
	Sets int
	// Ways is the table associativity.
	Ways int
	// TagBits is the partial tag width.
	TagBits int
	// ConfMax is the confidence ceiling (4-bit counter -> 15).
	ConfMax uint8
}

// DefaultConfig returns the Table II 14.5KB configuration.
func DefaultConfig() Config {
	return Config{Histories: Histories, Sets: 128, Ways: 4, TagBits: 16, ConfMax: 15}
}

// BudgetConfig scales the default configuration to roughly the given
// storage budget by varying sets per table — the Fig. 13 sweep. Budgets
// correspond to sets 32/64/128/256/512 ≈ 3.6/7.25/14.5/29/58 KB.
func BudgetConfig(sets int) Config {
	c := DefaultConfig()
	c.Sets = sets
	return c
}

// PHAST is the cost-effective predictor of §IV-B.
type PHAST struct {
	cfg    Config
	tables []*mdp.AssocTable

	// Incremental folds per table on the decode-time (prediction) history
	// register; training folds on demand from the register passed to it.
	foldsD []*histutil.Fold

	setBits int

	reads, writes uint64

	// lenHist counts trained conflicts per selected history length
	// (index = table number), for the Fig. 10-style accounting.
	lenHist []uint64
}

var _ mdp.Predictor = (*PHAST)(nil)

// New builds a PHAST predictor.
func New(cfg Config) *PHAST {
	if len(cfg.Histories) == 0 {
		panic("core: PHAST needs at least one history length")
	}
	for i := 1; i < len(cfg.Histories); i++ {
		if cfg.Histories[i] <= cfg.Histories[i-1] {
			panic("core: PHAST history lengths must be ascending")
		}
	}
	p := &PHAST{cfg: cfg, lenHist: make([]uint64, len(cfg.Histories))}
	for range cfg.Histories {
		p.tables = append(p.tables, mdp.NewAssocTable(cfg.Sets, cfg.Ways, cfg.TagBits))
	}
	for 1<<p.setBits < cfg.Sets {
		p.setBits++
	}
	return p
}

// NewDefault builds the 14.5KB paper configuration.
func NewDefault() *PHAST { return New(DefaultConfig()) }

// Name implements mdp.Predictor.
func (p *PHAST) Name() string { return "phast" }

// Tables returns the predictor's tables, shortest history first.
func (p *PHAST) Tables() []*mdp.AssocTable { return p.tables }

// Bind implements mdp.Predictor: register one S+T-bit fold per table on both
// history registers (§IV-B: the history is folded until S+T bits remain).
func (p *PHAST) Bind(decode, commit *histutil.Reg) {
	width := p.setBits + p.cfg.TagBits
	if width > 64 {
		width = 64
	}
	for _, h := range p.cfg.Histories {
		p.foldsD = append(p.foldsD, decode.NewFold(h, width))
	}
	_ = commit // training folds on demand from the register passed to it
}

// indexTag combines the folded history with the hashed load PC (§IV-B): the
// low S folded bits perturb the index hash PC⊕(PC>>2)⊕(PC>>5), the high T
// bits perturb the tag hash (PC offset by 3 and 7).
func (p *PHAST) indexTag(pc uint64, folded uint64) (set uint32, tag uint32) {
	set = uint32((histutil.HashPC(pc) ^ folded) & uint64(p.cfg.Sets-1))
	tag = uint32((histutil.HashPCTag(pc) ^ (folded >> p.setBits)) & (1<<p.cfg.TagBits - 1))
	return set, tag
}

// foldWidth is the folded history width S+T of §IV-B.
func (p *PHAST) foldWidth() int {
	w := p.setBits + p.cfg.TagBits
	if w > 64 {
		w = 64
	}
	return w
}

// Predict implements mdp.Predictor: all tables are searched in parallel with
// their respective history lengths; among matches with non-zero confidence,
// the longest history wins.
func (p *PHAST) Predict(ld mdp.LoadInfo, _ *histutil.Reg) mdp.Prediction {
	p.reads += uint64(len(p.tables))
	for t := len(p.tables) - 1; t >= 0; t-- {
		set, tag := p.indexTag(ld.PC, p.foldsD[t].Value())
		if e, w := p.tables[t].Lookup(set, tag); e != nil {
			p.tables[t].Touch(set, w)
			if e.Conf > 0 {
				return mdp.Prediction{
					Kind: mdp.Distance, Dist: int(e.Dist),
					Provider: mdp.ProviderRef{Valid: true, Table: t, Set: set, Way: uint8(w), Tag: tag},
				}
			}
		}
	}
	return mdp.Prediction{Kind: mdp.NoDep}
}

// StoreDispatch implements mdp.Predictor (PHAST constrains only loads).
func (p *PHAST) StoreDispatch(mdp.StoreInfo) uint64 { return 0 }

// StoreCommit implements mdp.Predictor.
func (p *PHAST) StoreCommit(mdp.StoreInfo) {}

// tableFor selects the table whose length is the largest not exceeding the
// conflict's history length (the truncation rule of §IV-B).
func (p *PHAST) tableFor(histLen int) int {
	sel := 0
	for i, h := range p.cfg.Histories {
		if h <= histLen {
			sel = i
		}
	}
	return sel
}

// TrainViolation implements mdp.Predictor. The history length of the
// conflict is N+1, where N is the number of divergent branches between the
// store and the load — obtained from the decode-time copies of the global
// divergent-branch counter each of them carries (§IV-A2). The entry is
// written into the table for that length using the commit-time history.
func (p *PHAST) TrainViolation(ld mdp.LoadInfo, st mdp.StoreInfo, dist int, _ mdp.Outcome, hist *histutil.Reg) {
	if dist < 0 || dist > 127 {
		return // beyond the 7-bit distance field
	}
	histLen := int(ld.BranchCount-st.BranchCount) + 1
	t := p.tableFor(histLen)
	p.lenHist[t]++
	// Fold the training history from the register the core hands us: the
	// commit-time register at the load's commit, or the core's exact
	// reconstruction when training at detection (the §IV-A1 ablation).
	set, tag := p.indexTag(ld.PC, hist.Fold(p.cfg.Histories[t], p.foldWidth()))
	p.writes++
	if e, w := p.tables[t].Lookup(set, tag); e != nil {
		e.Dist = uint8(dist)
		e.Conf = p.cfg.ConfMax
		p.tables[t].Touch(set, w)
		return
	}
	p.tables[t].Insert(set, mdp.Entry{Valid: true, Tag: tag, Dist: uint8(dist), Conf: p.cfg.ConfMax})
}

// TrainCommit implements mdp.Predictor: if the load waited for the correct
// store the provider's confidence resets to the maximum; otherwise it is
// decremented, and at zero the entry stops predicting (§IV-A2).
func (p *PHAST) TrainCommit(_ mdp.LoadInfo, out mdp.Outcome, _ *histutil.Reg) {
	ref := out.Pred.Provider
	if !ref.Valid || !out.Waited {
		return
	}
	e := p.tables[ref.Table].At(ref.Set, int(ref.Way))
	if !e.Valid || e.Tag != ref.Tag {
		return // evicted since the prediction was made
	}
	p.writes++
	if out.TrueDep {
		e.Conf = p.cfg.ConfMax
	} else if e.Conf > 0 {
		e.Conf--
	}
}

// SizeBits implements mdp.Predictor: entries × (16-bit tag + 7-bit distance
// + 4-bit confidence + 2 LRU bits), Table II's 14.5KB at the default size.
func (p *PHAST) SizeBits() int {
	entries := len(p.tables) * p.cfg.Sets * p.cfg.Ways
	return entries * (p.cfg.TagBits + 7 + 4 + 2)
}

// Paths implements mdp.Predictor (finite predictor).
func (p *PHAST) Paths() int { return 0 }

// Accesses implements mdp.Predictor.
func (p *PHAST) Accesses() (uint64, uint64) { return p.reads, p.writes }

// LengthCounts returns trained conflicts per table (ascending history
// length), for history-length distribution reporting.
func (p *PHAST) LengthCounts() []uint64 {
	out := make([]uint64, len(p.lenHist))
	copy(out, p.lenHist)
	return out
}
