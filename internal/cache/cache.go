// Package cache models the memory hierarchy of Table I: private L1I/L1D and
// L2, a shared L3, and main memory, with per-level MSHRs, LRU replacement,
// and an IP-stride L1D prefetcher. The model is latency oriented: the
// pipeline asks at which cycle an access completes; tag state, inclusion,
// and miss-status handling evolve as accesses are performed in order.
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

	mshrs []uint64 // busy-until cycle per MSHR

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
		mshrs:      make([]uint64, c.MSHRs),
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
	line := l.line(addr)
	base := l.set(line) * l.ways
	for w := 0; w < l.ways; w++ {
		if l.tags[base+w] == line+1 {
			return true
		}
	}
	return false
}

// access probes and on hit refreshes LRU. Returns hit.
func (l *Level) access(addr uint64) bool {
	line := l.line(addr)
	s := l.set(line)
	tags := l.tags[s*l.ways : (s+1)*l.ways]
	for w, t := range tags {
		if t == line+1 {
			l.lru.Touch(s, w)
			return true
		}
	}
	return false
}

// Fill installs the line in the first invalid way, else the least recently
// used one. Returns the evicted line (+1 encoded) or 0 if an invalid way was
// used.
func (l *Level) Fill(addr uint64) uint64 {
	line := l.line(addr)
	s := l.set(line)
	tags, stamps := l.tags[s*l.ways:(s+1)*l.ways], l.lru.Stamps(s)
	victim := 0
	for w, t := range tags {
		if t == 0 {
			victim = w
			break
		}
		if stamps[w] < stamps[victim] {
			victim = w
		}
	}
	evicted := tags[victim]
	tags[victim] = line + 1
	l.lru.Touch(s, victim)
	if evicted == line+1 {
		return 0
	}
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
