package mdp

import (
	"repro/internal/cache"
	"repro/internal/histutil"
)

// Entry is one prediction-table entry. Field widths follow Table II: a
// partial tag, a 7-bit store distance, a saturating confidence/usefulness
// counter, and 2 LRU bits (maintained by the table). The tag comes first so
// the entry packs into 8 bytes.
type Entry struct {
	Tag   uint32
	Valid bool
	Dist  uint8 // 7-bit store distance
	Conf  uint8 // confidence (PHAST/NoSQ) or counter payload
	U     uint8 // usefulness (MDP-TAGE)
}

// AssocTable is a set-associative prediction table with LRU replacement,
// shared by PHAST, NoSQ, MDP-TAGE and the budget-sweep variants. Recency is
// kept as per-way use stamps (cache.Recency), and one occupancy bit per set
// records whether the set holds a valid entry, so a lookup in an empty set
// — most lookups, since the predictors train only on violations — reads no
// entry. Both are host-side bookkeeping: the modelled LRU bits and the
// predictors' read counts do not depend on them.
type AssocTable struct {
	sets    int
	ways    int
	tagBits int
	entries []Entry
	lru     cache.Recency
	// occupied has bit s set while set s holds a valid entry.
	occupied []uint64
}

// NewAssocTable builds a table with the given geometry. Sets must be a
// power of two.
func NewAssocTable(sets, ways, tagBits int) *AssocTable {
	if !histutil.Pow2(sets) {
		panic("mdp: table sets must be a power of two")
	}
	if ways <= 0 || tagBits <= 0 || tagBits > 32 {
		panic("mdp: bad table geometry")
	}
	return &AssocTable{
		sets: sets, ways: ways, tagBits: tagBits,
		entries:  make([]Entry, sets*ways),
		lru:      cache.NewRecency(sets, ways),
		occupied: make([]uint64, (sets+63)/64),
	}
}

// Sets returns the number of sets.
func (t *AssocTable) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *AssocTable) Ways() int { return t.ways }

// TagBits returns the partial tag width.
func (t *AssocTable) TagBits() int { return t.tagBits }

// Entries returns the total entry count.
func (t *AssocTable) Entries() int { return t.sets * t.ways }

// SetIndex reduces a hash to a set index.
func (t *AssocTable) SetIndex(hash uint64) uint32 { return uint32(hash & uint64(t.sets-1)) }

// TagOf reduces a hash to a partial tag (never 0-width).
func (t *AssocTable) TagOf(hash uint64) uint32 {
	return uint32(hash>>16) & (1<<t.tagBits - 1)
}

// Occupied reports whether the set holds a valid entry.
func (t *AssocTable) Occupied(set uint32) bool {
	return t.occupied[set>>6]&(1<<(set&63)) != 0
}

// Lookup returns the matching entry and its way, or (nil, -1). An empty set
// returns without reading its entries.
func (t *AssocTable) Lookup(set uint32, tag uint32) (*Entry, int) {
	if !t.Occupied(set) {
		return nil, -1
	}
	base := int(set) * t.ways
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.Valid && e.Tag == tag {
			return e, w
		}
	}
	return nil, -1
}

// At returns the entry at (set, way) for provider-based commit auditing.
func (t *AssocTable) At(set uint32, way int) *Entry {
	return &t.entries[int(set)*t.ways+way]
}

// Touch marks the way most recently used.
func (t *AssocTable) Touch(set uint32, way int) { t.lru.Touch(int(set), way) }

// Victim returns the way to replace in the set: an invalid way if any,
// otherwise the LRU way.
func (t *AssocTable) Victim(set uint32) int {
	base := int(set) * t.ways
	stamps := t.lru.Stamps(int(set))
	victim := 0
	for w := 0; w < t.ways; w++ {
		if !t.entries[base+w].Valid {
			return w
		}
		if stamps[w] < stamps[victim] {
			victim = w
		}
	}
	return victim
}

// Insert writes a new entry over the victim way and returns (entry, way).
// The entry must be valid.
func (t *AssocTable) Insert(set uint32, e Entry) (*Entry, int) {
	w := t.Victim(set)
	slot := &t.entries[int(set)*t.ways+w]
	*slot = e
	t.Touch(set, w)
	t.occupied[set>>6] |= 1 << (set & 63)
	return slot, w
}

// Invalidate clears one entry; its recency stamp is kept.
func (t *AssocTable) Invalidate(set uint32, way int) {
	base := int(set) * t.ways
	t.entries[base+way] = Entry{}
	for _, e := range t.entries[base : base+t.ways] {
		if e.Valid {
			return
		}
	}
	t.occupied[set>>6] &^= 1 << (set & 63)
}

// Reset invalidates every entry and forgets all recency.
func (t *AssocTable) Reset() {
	clear(t.entries)
	t.lru.Reset()
	clear(t.occupied)
}

// SizeBits returns the storage cost given payload bits per entry beyond the
// tag (the caller knows its field widths; LRU bits are included here).
func (t *AssocTable) SizeBits(payloadBits int) int {
	lruBits := 2
	return t.Entries() * (1 + t.tagBits + payloadBits + lruBits)
}
