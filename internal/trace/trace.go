// Package trace handles dynamic micro-op streams: generation from workload
// programs, a compact binary codec for saving/replaying streams, SimPoint-
// like representative interval selection, and architectural analyses that
// need no timing model (instruction mix, the multi-store dependence study of
// Fig. 4).
//
// The simulator is "functional first, timing second": the correct-path
// stream is produced architecturally in program order, and the timing model
// replays it, re-dispatching from the stream on squashes.
package trace

import (
	"fmt"
	"sync"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/workload"
)

// Trace is a named dynamic micro-op stream. The stream is immutable once
// built; Pre and BranchOutcomes lazily attach the precomputed structures the
// timing model shares across runs (see prefix.go).
type Trace struct {
	Name  string
	Insts []isa.Inst

	preOnce sync.Once
	pre     *Prefixes

	branches memo.Cache[branchKey, *bpred.Outcomes] // unbounded
}

// Generate produces the first n micro-ops of a program's stream.
func Generate(p workload.Program, n int, seed int64) *Trace {
	return &Trace{Name: p.Name, Insts: workload.Generate(p, n, seed)}
}

// Len returns the stream length.
func (t *Trace) Len() int { return len(t.Insts) }

// Mix summarises the instruction mix of a stream.
type Mix struct {
	Total     int
	Loads     int
	Stores    int
	Branches  int
	Divergent int
	ALU       int
	Nops      int
}

// String renders the mix as percentages.
func (m Mix) String() string {
	pct := func(v int) float64 {
		if m.Total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(m.Total)
	}
	return fmt.Sprintf("total=%d load=%.1f%% store=%.1f%% branch=%.1f%% (divergent=%.1f%%) alu=%.1f%%",
		m.Total, pct(m.Loads), pct(m.Stores), pct(m.Branches), pct(m.Divergent), pct(m.ALU))
}

// MixOf computes the instruction mix of the stream.
func (t *Trace) MixOf() Mix {
	var m Mix
	m.Total = len(t.Insts)
	for i := range t.Insts {
		in := &t.Insts[i]
		switch in.Kind {
		case isa.Load:
			m.Loads++
		case isa.Store:
			m.Stores++
		case isa.Branch:
			m.Branches++
			if in.Divergent() {
				m.Divergent++
			}
		case isa.ALU:
			m.ALU++
		case isa.Nop:
			m.Nops++
		}
	}
	return m
}

// MultiStore is the result of the Fig. 4 architectural analysis: how many
// loads depend on more than one store inside an in-flight window, and how
// many of those stores resolve in order (shared address base register).
type MultiStore struct {
	Loads           int // loads analysed
	MultiDepLoads   int // loads whose bytes come from ≥2 window stores
	InOrderProvider int // multi-dep loads whose providers share a base register
}

// MultiFrac returns the fraction of loads depending on multiple stores.
func (m MultiStore) MultiFrac() float64 {
	if m.Loads == 0 {
		return 0
	}
	return float64(m.MultiDepLoads) / float64(m.Loads)
}

// InOrderFrac returns, among multi-dependent loads, the fraction whose
// providing stores resolve in order.
func (m MultiStore) InOrderFrac() float64 {
	if m.MultiDepLoads == 0 {
		return 0
	}
	return float64(m.InOrderProvider) / float64(m.MultiDepLoads)
}

// AnalyzeMultiStore performs the Fig. 4 study over a window of the given
// size (use the machine's SQ capacity): for each load it finds the youngest
// in-window writer of every loaded byte and classifies loads with two or
// more distinct providers.
func (t *Trace) AnalyzeMultiStore(window int) MultiStore {
	var res MultiStore
	type storeRec struct {
		idx  int
		addr uint64
		size uint8
		base isa.Reg
	}
	ring := make([]storeRec, 0, window)
	// providers is reused across loads: the distinct youngest writers of the
	// current load's bytes. A load touches at most 255 bytes (Size is uint8),
	// so the slice stays tiny and is never reallocated in steady state.
	providers := make([]storeRec, 0, 16)
	for i := range t.Insts {
		in := &t.Insts[i]
		switch in.Kind {
		case isa.Store:
			if len(ring) == window {
				copy(ring, ring[1:])
				ring = ring[:window-1]
			}
			ring = append(ring, storeRec{idx: i, addr: in.Addr, size: in.Size, base: in.SrcA})
		case isa.Load:
			res.Loads++
			providers = providers[:0]
			// Youngest provider per loaded byte, deduplicated by store index.
			for b := in.Addr; b < in.End(); b++ {
				for j := len(ring) - 1; j >= 0; j-- {
					s := ring[j]
					if s.addr <= b && b < s.addr+uint64(s.size) {
						known := false
						for k := range providers {
							if providers[k].idx == s.idx {
								known = true
								break
							}
						}
						if !known {
							providers = append(providers, s)
						}
						break
					}
				}
			}
			if len(providers) >= 2 {
				res.MultiDepLoads++
				same := true
				first := providers[0].base
				for k := 1; k < len(providers); k++ {
					if providers[k].base != first {
						same = false
						break
					}
				}
				if same && first != 0 {
					res.InOrderProvider++
				}
			}
		}
	}
	return res
}
