package cache

import "repro/internal/config"

// inflightSlots sizes the direct-mapped outstanding-fill table. It far
// exceeds any realistic population of simultaneously outstanding lines
// (bounded by the L1D's MSHRs), so conflict evictions — which merely turn a
// secondary miss into a full miss — are rare.
const inflightSlots = 4096

// inflightFill is one slot of the outstanding-fill table: the line (+1, so
// zero means invalid) and the cycle its fill completes.
type inflightFill struct {
	line uint64
	done uint64
}

// Hierarchy composes the levels of Table I and answers the pipeline's two
// questions: "when does this load's data arrive?" and "when does this fetch
// group arrive?". Stores write through the store buffer after commit and
// install lines on their way down.
type Hierarchy struct {
	L1I, L1D, L2, L3 *Level
	memLatency       int

	pf *StridePrefetcher

	// inflight tracks outstanding line fills so that a second miss to an
	// in-flight line completes with it instead of paying a full miss (MSHR
	// secondary-miss coalescing). Direct-mapped: a colliding fill evicts the
	// older entry, safely degrading a future secondary miss to a full one.
	inflight []inflightFill

	// DemandAccesses counts L1D demand accesses (loads + store drains).
	DemandAccesses uint64
}

// New builds the hierarchy for a machine configuration.
func New(m config.Machine) *Hierarchy {
	h := &Hierarchy{
		L1I:        NewLevel("L1I", m.L1I),
		L1D:        NewLevel("L1D", m.L1D),
		L2:         NewLevel("L2", m.L2),
		L3:         NewLevel("L3", m.L3),
		memLatency: m.MemLatency,
		inflight:   make([]inflightFill, inflightSlots),
	}
	h.L1D.mshrs = make([]uint64, m.L1D.MSHRs)
	if m.PrefetchDegree > 0 {
		h.pf = NewStridePrefetcher(256, m.PrefetchDegree, m.L1D.LineBytes)
	}
	return h
}

// Reset returns the hierarchy to its just-constructed state (cold caches,
// idle MSHRs, untrained prefetcher) without reallocating any table.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.L3.Reset()
	clear(h.inflight)
	if h.pf != nil {
		h.pf.Reset()
	}
	h.DemandAccesses = 0
}

// Load returns the completion cycle of a demand load issued at cycle to
// addr, training the prefetcher with the load's PC.
func (h *Hierarchy) Load(cycle uint64, pc, addr uint64) uint64 {
	h.DemandAccesses++
	done := h.dataAccess(cycle, addr)
	if h.pf != nil {
		for _, pfAddr := range h.pf.Observe(pc, addr) {
			// Prefetches install lines with miss latency but off the
			// load's critical path.
			if !h.L1D.Lookup(pfAddr) {
				h.dataAccess(cycle, pfAddr)
			}
		}
	}
	return done
}

// StoreDrain models a committed store leaving the store buffer at cycle:
// it writes the line into L1D (write-allocate). Returns the cycle the store
// buffer entry frees.
func (h *Hierarchy) StoreDrain(cycle uint64, addr uint64) uint64 {
	h.DemandAccesses++
	return h.dataAccess(cycle, addr)
}

// dataAccess walks L1D→L2→L3→memory, filling on the way back. The returned
// cycle includes L1D MSHR contention.
func (h *Hierarchy) dataAccess(cycle uint64, addr uint64) uint64 {
	line := addr >> h.L1D.lineShift
	victim, hit := h.L1D.access(addr)
	if hit {
		h.L1D.Hits++
		return cycle + uint64(h.L1D.hitLatency)
	}
	h.L1D.Misses++
	slot := &h.inflight[line&(inflightSlots-1)]
	if slot.line == line+1 && slot.done > cycle {
		// Secondary miss: ride the outstanding fill.
		return slot.done
	}
	lat := uint64(h.L1D.hitLatency + h.beyondL1(addr))
	start := h.L1D.reserveMSHR(cycle, cycle+lat)
	h.L1D.install(addr, victim)
	*slot = inflightFill{line: line + 1, done: start + lat}
	return start + lat
}

// beyondL1 walks L2→L3→memory for a line that missed an L1, counting hits
// and misses and filling the missing levels on the way back, and returns
// the latency past the L1.
func (h *Hierarchy) beyondL1(addr uint64) int {
	l2Victim, hit := h.L2.access(addr)
	if hit {
		h.L2.Hits++
		return h.L2.hitLatency
	}
	h.L2.Misses++
	lat := h.L2.hitLatency + h.L3.hitLatency
	if l3Victim, hit := h.L3.access(addr); hit {
		h.L3.Hits++
	} else {
		h.L3.Misses++
		lat += h.memLatency
		h.L3.install(addr, l3Victim)
	}
	h.L2.install(addr, l2Victim)
	return lat
}

// Fetch returns the completion cycle of an instruction fetch at cycle. The
// instruction path is L1I → L2 → L3 → memory, with a next-line prefetcher
// (standard in L1I front ends) hiding sequential-code cold misses: it
// installs the next line off the critical path, updating tag state but
// charging no fetch latency.
func (h *Hierarchy) Fetch(cycle uint64, pc uint64) uint64 {
	next := pc + 64
	if _, victim, hit := h.L1I.probe(next); !hit {
		h.beyondL1(next)
		h.L1I.install(next, victim)
	}
	victim, hit := h.L1I.access(pc)
	if hit {
		h.L1I.Hits++
		return cycle + uint64(h.L1I.hitLatency)
	}
	h.L1I.Misses++
	lat := h.L1I.hitLatency + h.beyondL1(pc)
	h.L1I.install(pc, victim)
	return cycle + uint64(lat)
}

// StridePrefetcher is the IP-stride L1D prefetcher of Table I: per load PC
// it tracks the last address and stride; two consecutive confirmations make
// it issue `degree` prefetches ahead. The table is direct-mapped (PC-
// indexed, tagged), replacing deterministically on conflict — a hardware-
// faithful geometry that also avoids per-access map allocations.
type StridePrefetcher struct {
	entries  []strideEntry
	mask     uint64
	degree   int
	lineSize int
	out      []uint64 // reused Observe result buffer

	Issued uint64
}

type strideEntry struct {
	pc         uint64 // tag (+1, 0 = invalid)
	lastAddr   uint64
	stride     int64
	confidence uint8
}

// NewStridePrefetcher builds a prefetcher with the given table capacity
// (rounded up to a power of two) and prefetch degree.
func NewStridePrefetcher(capacity, degree, lineSize int) *StridePrefetcher {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &StridePrefetcher{
		entries:  make([]strideEntry, n),
		mask:     uint64(n - 1),
		degree:   degree,
		lineSize: lineSize,
		out:      make([]uint64, 0, degree),
	}
}

// Reset untrains the prefetcher without reallocating its table.
func (p *StridePrefetcher) Reset() {
	clear(p.entries)
	p.Issued = 0
}

// Observe trains on a demand load and returns the addresses to prefetch.
// The returned slice is reused by the next call.
func (p *StridePrefetcher) Observe(pc, addr uint64) []uint64 {
	e := &p.entries[pc&p.mask]
	if e.pc != pc+1 {
		// Miss or conflict: (re)allocate the slot to this PC.
		*e = strideEntry{pc: pc + 1, lastAddr: addr}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.confidence < 3 {
			e.confidence++
		}
	} else {
		e.confidence = 0
		e.stride = stride
	}
	e.lastAddr = addr
	if e.confidence < 2 {
		return nil
	}
	out := p.out[:0]
	next := int64(addr)
	for i := 0; i < p.degree; i++ {
		next += e.stride
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	p.out = out
	p.Issued += uint64(len(out))
	return out
}
