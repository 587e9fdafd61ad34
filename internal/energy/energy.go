// Package energy estimates per-access energy of the predictors' SRAM
// structures, standing in for the Cacti-P 7nm toolchain the paper used
// (see DESIGN.md §3). The model is anchored on the per-access pJ values the
// paper reports in Table II and scales other geometries with a standard
// SRAM area/energy relation (energy ≈ bitline + wordline + sense terms,
// dominated by √(total bits) for small arrays, times the bits moved per
// access). Figure 16 is access counts × these per-access energies, so the
// anchored points reproduce it exactly and swept geometries stay plausible.
package energy

import "math"

// Structure describes one SRAM lookup structure of a predictor.
type Structure struct {
	Name string
	// Entries is the total entry count.
	Entries int
	// EntryBits is the width of one entry.
	EntryBits int
	// AccessBits is how many bits one access reads (ways × entry width for
	// a set-associative probe; EntryBits for a direct-mapped read).
	AccessBits int
	// Parallel is how many such structures are probed per prediction
	// (e.g. 8 PHAST tables).
	Parallel int
}

// TotalBits returns the storage of all parallel instances.
func (s Structure) TotalBits() int { return s.Entries * s.EntryBits * max(1, s.Parallel) }

// anchor is a Table II calibration point (one physical structure).
type anchor struct {
	rows       float64 // wordlines: entries / ways
	accessBits float64 // bits read per probe
	perAccess  float64 // pJ per single-structure probe
}

// Table II anchors: Store Sets' SSIT and LFST (direct mapped), one NoSQ
// table, one MDP-TAGE component, one MDP-TAGE-S table, and one PHAST table
// (all 4-way). Per-structure values divide the paper's whole-predictor
// numbers by the probe fan-out.
var anchors = []anchor{
	{rows: 8192, accessBits: 13, perAccess: 0.2403},         // SSIT
	{rows: 4096, accessBits: 11, perAccess: 0.1026},         // LFST
	{rows: 512, accessBits: 4 * 38, perAccess: 0.3721 / 2},  // NoSQ table
	{rows: 341, accessBits: 4 * 23, perAccess: 1.3103 / 12}, // MDP-TAGE component
	{rows: 128, accessBits: 4 * 26, perAccess: 0.4421 / 8},  // MDP-TAGE-S table
	{rows: 128, accessBits: 4 * 29, perAccess: 0.4856 / 8},  // PHAST table
}

// rowExponent is the fitted wordline/bitline scaling: per-probe energy grows
// slightly sublinearly with the number of rows (0.9 fits the six anchors
// within ±25%; a pure √rows model misses the direct-mapped points 4×).
const rowExponent = 0.9

// raw computes the uncalibrated model term for one structure probe.
func raw(rows, accessBits float64) float64 {
	return accessBits * math.Pow(rows, rowExponent)
}

// scale is the least-squares fit of the anchors onto the raw model,
// computed once at init.
var scale float64

func init() {
	num, den := 0.0, 0.0
	for _, a := range anchors {
		r := raw(a.rows, a.accessBits)
		num += r * a.perAccess
		den += r * r
	}
	scale = num / den
}

// PerAccessPJ estimates the energy of one full prediction access (probing
// all parallel structures) in picojoules.
func PerAccessPJ(structs []Structure) float64 {
	total := 0.0
	for _, s := range structs {
		p := float64(max(1, s.Parallel))
		ways := 1.0
		if s.EntryBits > 0 && s.AccessBits > s.EntryBits {
			ways = float64(s.AccessBits) / float64(s.EntryBits)
		}
		rows := float64(s.Entries) / ways
		total += p * raw(rows, float64(s.AccessBits))
	}
	return total * scale
}

// ParallelFor returns the number of structures one access probes (the
// divisor for write energy in OfRun), at least 1.
func ParallelFor(structs []Structure) int {
	total := 0
	for _, s := range structs {
		total += max(1, s.Parallel)
	}
	return max(1, total)
}

// RunEnergy summarises a predictor's energy over a simulation.
type RunEnergy struct {
	ReadsNJ  float64
	WritesNJ float64
}

// TotalNJ returns read + write energy.
func (r RunEnergy) TotalNJ() float64 { return r.ReadsNJ + r.WritesNJ }

// writeFactor models the relative cost of an SRAM write versus a read
// (writes drive full bitline swings; Cacti-P reports roughly 10-20% more).
const writeFactor = 1.15

// OfRun converts access counts into energy. perAccessPJ is the whole-
// predictor per-access figure (PerAccessPJ or a Table II anchor); reads
// count whole-predictor probes and writes count entry updates (a write
// touches one structure, approximated as perAccess/parallel).
func OfRun(perAccessPJ float64, parallel int, reads, writes uint64) RunEnergy {
	if parallel < 1 {
		parallel = 1
	}
	writePJ := perAccessPJ / float64(parallel) * writeFactor
	return RunEnergy{
		ReadsNJ:  float64(reads) * perAccessPJ / 1000,
		WritesNJ: float64(writes) * writePJ / 1000,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
