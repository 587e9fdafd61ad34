package pipeline

import (
	"repro/internal/histutil"
	"repro/internal/mdp"
)

// Store Vulnerability Window re-execution filtering (Roth, ISCA 2005), with
// NoSQ's tagged set-associative Store Sequence Bloom Filter (§VII of the
// paper). It is the alternative to searching the load queue on every store
// address resolution: stores do nothing at resolve time; instead every load
// verifies itself just before commit against the SSBF, which maps addresses
// to the store sequence number (SSN — here the global store allocation
// index) of the youngest committed store that wrote them.
//
// A load records, when it executes, the SSN it is consistent with: the SSN
// of its forwarding store, or the youngest committed store at that moment.
// At commit the load probes the SSBF with its address; if a younger store
// has committed to that address since (strictly younger for non-bypassing
// loads; different for bypassing loads), the load's value may be stale and
// it re-executes.
//
// Compared with the paper's FWD filter (§IV-A1), SVW achieves the same "do
// not squash loads that already got the right value" effect with commit-
// side checks instead of resolve-side LQ searches, at the cost of aliasing
// squashes when the filter is too small. The repository exposes both as
// Options.Filter for the filtering ablation.

// FilterMode selects the mis-speculation detection/filtering mechanism.
type FilterMode uint8

const (
	// FilterFwd is the paper's §IV-A1 forwarding filter on the LQ-search
	// path (the default everywhere).
	FilterFwd FilterMode = iota
	// FilterNone is the gem5-like LQ search without forwarding filtering
	// (the Fig. 12 "No FWD" ablation).
	FilterNone
	// FilterSVW replaces the LQ search with commit-time SVW/SSBF
	// verification (NoSQ's mechanism, §VII).
	FilterSVW
)

// ssbf is NoSQ's tagged, set-associative Store Sequence Bloom Filter.
type ssbf struct {
	sets, ways int
	entries    []ssbfEntry
}

type ssbfEntry struct {
	tag   uint64 // line address (full tag keeps the filter conservative)
	ssn   uint64 // youngest committed store index + 1 (0 = invalid)
	touch uint64 // insertion order for FIFO replacement (per NoSQ)
}

const ssbfLineShift = 3 // 8-byte granularity

func newSSBF(sets, ways int) *ssbf {
	if !histutil.Pow2(sets) {
		panic("pipeline: SSBF sets must be a power of two")
	}
	return &ssbf{sets: sets, ways: ways, entries: make([]ssbfEntry, sets*ways)}
}

func (f *ssbf) index(line uint64) int { return int(line&uint64(f.sets-1)) * f.ways }

// update records a committed store writing [addr, addr+size).
func (f *ssbf) update(addr uint64, size uint8, ssn uint64, stamp uint64) {
	for line := addr >> ssbfLineShift; line <= (addr+uint64(size)-1)>>ssbfLineShift; line++ {
		base := f.index(line)
		slot := -1
		var oldest uint64 = ^uint64(0)
		for w := 0; w < f.ways; w++ {
			e := &f.entries[base+w]
			if e.ssn != 0 && e.tag == line {
				slot = base + w
				break
			}
			if e.touch < oldest {
				oldest, slot = e.touch, base+w
			}
		}
		f.entries[slot] = ssbfEntry{tag: line, ssn: ssn + 1, touch: stamp}
	}
}

// youngest returns the SSN of the youngest committed store overlapping
// [addr, addr+size), and whether any was found. A line that aged out of the
// FIFO returns not-found, which is safe only because evicted lines are old;
// NoSQ sizes the filter so the vulnerability window is covered.
func (f *ssbf) youngest(addr uint64, size uint8) (uint64, bool) {
	var best uint64
	found := false
	for line := addr >> ssbfLineShift; line <= (addr+uint64(size)-1)>>ssbfLineShift; line++ {
		base := f.index(line)
		for w := 0; w < f.ways; w++ {
			e := &f.entries[base+w]
			if e.ssn != 0 && e.tag == line {
				if e.ssn-1 >= best || !found {
					if !found || e.ssn-1 > best {
						best = e.ssn - 1
					}
					found = true
				}
			}
		}
	}
	return best, found
}

// svwCheckLoad verifies a load at commit under FilterSVW. It returns false
// if the load must re-execute, filling the violation fields used for
// predictor training.
func (c *Core) svwCheckLoad(e *robEntry) bool {
	in := e.inst
	youngest, found := c.svw.youngest(in.Addr, in.Size)
	if !found {
		return true // no vulnerable store committed to this address
	}
	if e.fwdFrom != 0 {
		// Bypassing load: consistent only if its forwarder is the youngest
		// committed writer.
		if e.fwdStoreIndex >= youngest {
			return true
		}
	} else if e.svwSSN != 0 && e.svwSSN-1 >= youngest {
		// Non-bypassing load: consistent if no store younger than the ones
		// it could see has committed to the address.
		return true
	}
	// Stale value: identify the conflicting store for training.
	e.violated = true
	e.violStore = c.committedStoreInfo(youngest)
	return false
}

// recordSVW snapshots, at load execution, the consistency point of the
// load: its forwarder's index (bypassing) or the committed-store count.
func (c *Core) recordSVW(e *robEntry, fwdIndex uint64, bypassing bool) {
	if c.opt.Filter != FilterSVW {
		return
	}
	if bypassing {
		e.fwdStoreIndex = fwdIndex
		return
	}
	e.svwSSN = c.committedStores // count of committed stores == next SSN
}

// committedStoreInfo reconstructs the identity of a committed store from the
// retirement ring for predictor training.
func (c *Core) committedStoreInfo(storeIndex uint64) mdp.StoreInfo {
	r := &c.storeRing[storeIndex%uint64(len(c.storeRing))]
	if r.storeIndex == storeIndex {
		return mdp.StoreInfo{PC: r.pc, Seq: r.seq, BranchCount: r.branchCount, StoreIndex: storeIndex}
	}
	// Aged out of the ring (very old store): train with index only.
	return mdp.StoreInfo{StoreIndex: storeIndex}
}

type committedStore struct {
	storeIndex  uint64
	pc          uint64
	seq         uint64
	branchCount uint64
}

// noteCommittedStore records a retiring store in the SSBF and the
// retirement ring.
func (c *Core) noteCommittedStore(e *robEntry) {
	if c.opt.Filter != FilterSVW {
		return
	}
	in := e.inst
	c.svw.update(in.Addr, in.Size, e.storeIndex, c.committedStores)
	c.storeRing[e.storeIndex%uint64(len(c.storeRing))] = committedStore{
		storeIndex: e.storeIndex, pc: in.PC, seq: e.seq, branchCount: e.branchCount,
	}
	c.committedStores++
}
