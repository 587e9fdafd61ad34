// Package cache models the memory hierarchy of Table I: private L1I/L1D and
// L2, a shared L3, and main memory, with L1D MSHRs, LRU replacement, and an
// IP-stride L1D prefetcher. Only the L1D's misses contend for MSHRs; the
// L1I, L2 and L3 MSHR counts of config.Machine are not modelled. The model
// is latency oriented: the pipeline asks at which cycle an access completes;
// tag state, inclusion, and miss-status handling evolve as accesses are
// performed in order.
//
// LRU order is kept as per-way use stamps (see Recency), so a hit writes
// one byte; the MDP prediction tables (package mdp) share the mechanism.
package cache

import (
	"repro/internal/config"
)

// Level is one set-associative cache level.
type Level struct {
	name       string
	sets       int
	ways       int
	lineShift  uint
	hitLatency int

	tags []uint64 // sets × ways line tags; 0 = invalid
	lru  Recency

	mshrs []uint64 // busy-until cycle per MSHR; only the L1D has any (see New)

	Hits, Misses uint64
}

// NewLevel builds a cache level from its configuration.
func NewLevel(name string, c config.Cache) *Level {
	sets := c.Sets()
	shift := uint(0)
	for 1<<shift < c.LineBytes {
		shift++
	}
	l := &Level{
		name:       name,
		sets:       sets,
		ways:       c.Ways,
		lineShift:  shift,
		hitLatency: c.HitLatency,
		tags:       make([]uint64, sets*c.Ways),
		lru:        NewRecency(sets, c.Ways),
	}
	return l
}

// Reset invalidates every line and clears MSHR and hit/miss state, returning
// the level to its just-constructed contents without reallocating.
func (l *Level) Reset() {
	clear(l.tags)
	l.lru.Reset()
	clear(l.mshrs)
	l.Hits, l.Misses = 0, 0
}

// Name returns the level's label (e.g. "L1D").
func (l *Level) Name() string { return l.name }

// HitLatency returns the level's hit latency in cycles.
func (l *Level) HitLatency() int { return l.hitLatency }

func (l *Level) line(addr uint64) uint64 { return addr >> l.lineShift }

func (l *Level) set(line uint64) int { return int(line % uint64(l.sets)) }

// Lookup probes the tags without changing state; reports presence.
func (l *Level) Lookup(addr uint64) bool {
	_, _, hit := l.probe(addr)
	return hit
}

// probe walks addr's set s once without changing state. It returns the way
// holding the line and true, or else the way a fill replaces — the first
// invalid way, else the least recently used one — and false. Only install
// writes a tag, into the way a probe returned, so a set's valid ways are a
// prefix of it and the walk stops at the first invalid way.
func (l *Level) probe(addr uint64) (s, way int, hit bool) {
	line := l.line(addr)
	s = l.set(line)
	tags := l.tags[s*l.ways : (s+1)*l.ways]
	stamps := l.lru.Stamps(s)[:len(tags)]
	// oldest packs the oldest stamp seen with its way, so one branch-free
	// min tracks both (valid ways' stamps are distinct).
	oldest := ^uint16(0)
	for w, t := range tags {
		switch {
		case t == line+1:
			return s, w, true
		case t == 0:
			return s, w, false
		}
		oldest = min(oldest, uint16(stamps[w])<<8|uint16(w))
	}
	return s, int(oldest & 0xff), false
}

// access is probe that, on a hit, marks the way most recently used.
func (l *Level) access(addr uint64) (way int, hit bool) {
	s, way, hit := l.probe(addr)
	if hit {
		l.lru.Touch(s, way)
	}
	return way, hit
}

// install puts addr's line, which missed, into way of its set — the victim
// the missing probe returned — and marks it most recently used. It returns
// the evicted line (+1 encoded), or 0 if the way was invalid.
func (l *Level) install(addr uint64, way int) uint64 {
	line := l.line(addr)
	s := l.set(line)
	i := s*l.ways + way
	evicted := l.tags[i]
	l.tags[i] = line + 1
	l.lru.Touch(s, way)
	return evicted
}

// reserveMSHR models miss-status register contention: a miss started at
// cycle c occupies an MSHR until done. If all MSHRs are busy the miss is
// delayed until the earliest one frees. Returns the actual start cycle.
func (l *Level) reserveMSHR(cycle, done uint64) uint64 {
	earliestIdx, earliest := 0, l.mshrs[0]
	for i, busy := range l.mshrs {
		if busy <= cycle {
			l.mshrs[i] = done
			return cycle
		}
		if busy < earliest {
			earliest, earliestIdx = busy, i
		}
	}
	start := earliest
	l.mshrs[earliestIdx] = start + (done - cycle)
	return start
}
