package mdp

import (
	"testing"
	"testing/quick"
)

func TestAssocTableGeometry(t *testing.T) {
	tb := NewAssocTable(128, 4, 16)
	if tb.Sets() != 128 || tb.Ways() != 4 || tb.TagBits() != 16 || tb.Entries() != 512 {
		t.Error("geometry accessors wrong")
	}
	// Table II PHAST: 512 entries × 29 bits payload layout.
	if got := tb.Entries() * (16 + 7 + 4 + 2); got != 512*29 {
		t.Errorf("PHAST-like storage = %d bits", got)
	}
}

func TestAssocTableRejectsBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewAssocTable(100, 4, 16) }, // not a power of two
		func() { NewAssocTable(128, 0, 16) },
		func() { NewAssocTable(128, 4, 0) },
		func() { NewAssocTable(128, 4, 33) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry should panic")
				}
			}()
			f()
		}()
	}
}

func TestAssocTableInsertLookup(t *testing.T) {
	tb := NewAssocTable(4, 2, 12)
	tb.Insert(1, Entry{Valid: true, Tag: 100, Dist: 7})
	e, w := tb.Lookup(1, 100)
	if e == nil || e.Dist != 7 || w < 0 {
		t.Fatal("inserted entry not found")
	}
	if e, _ := tb.Lookup(1, 101); e != nil {
		t.Error("wrong tag should miss")
	}
	if e, _ := tb.Lookup(2, 100); e != nil {
		t.Error("wrong set should miss")
	}
}

func TestAssocTableLRUReplacement(t *testing.T) {
	tb := NewAssocTable(2, 2, 12)
	tb.Insert(0, Entry{Valid: true, Tag: 1})
	tb.Insert(0, Entry{Valid: true, Tag: 2})
	// Touch tag 1 so tag 2 becomes LRU.
	_, w := tb.Lookup(0, 1)
	tb.Touch(0, w)
	tb.Insert(0, Entry{Valid: true, Tag: 3})
	if e, _ := tb.Lookup(0, 1); e == nil {
		t.Error("MRU entry evicted")
	}
	if e, _ := tb.Lookup(0, 2); e != nil {
		t.Error("LRU entry survived")
	}
}

func TestAssocTableVictimPrefersInvalid(t *testing.T) {
	tb := NewAssocTable(2, 4, 12)
	tb.Insert(0, Entry{Valid: true, Tag: 1})
	v := tb.Victim(0)
	if tb.At(0, v).Valid {
		t.Error("victim should be an invalid way while any exists")
	}
}

func TestAssocTableInvalidatePreservesLRUPermutation(t *testing.T) {
	tb := NewAssocTable(1, 4, 12)
	for i := uint32(1); i <= 4; i++ {
		tb.Insert(0, Entry{Valid: true, Tag: i})
	}
	tb.Invalidate(0, 2)
	if tb.At(0, 2).Valid {
		t.Error("invalidated entry still valid")
	}
	// The surviving ways keep their insertion order as distinct stamps.
	st := tb.lru.Stamps(0)
	if !(st[0] < st[1] && st[1] < st[3]) {
		t.Errorf("recency order of valid ways lost: stamps %v", st)
	}
	if v := tb.Victim(0); v != 2 {
		t.Errorf("victim = %d, want the invalidated way 2", v)
	}
	// Refilling the hole leaves way 0 least recently used.
	tb.Insert(0, Entry{Valid: true, Tag: 5})
	if v := tb.Victim(0); v != 0 {
		t.Errorf("victim after refill = %d, want LRU way 0", v)
	}
}

// TestAssocTableLRUPermutationInvariant: after any operation sequence, the
// valid ways of each set hold distinct recency stamps, so their use order
// is a strict total order (a permutation of recency ranks).
func TestAssocTableLRUPermutationInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := NewAssocTable(4, 4, 10)
		for _, op := range ops {
			set := uint32(op) & 3
			tag := uint32(op>>2) & 1023
			switch (op >> 12) & 3 {
			case 0:
				tb.Insert(set, Entry{Valid: true, Tag: tag})
			case 1:
				if e, w := tb.Lookup(set, tag); e != nil {
					tb.Touch(set, w)
				}
			case 2:
				tb.Invalidate(set, int(op>>2)&3)
			default:
				tb.Reset()
			}
			for s := uint32(0); s < 4; s++ {
				st := tb.lru.Stamps(int(s))
				var seen [256]bool
				for w := 0; w < 4; w++ {
					if !tb.At(s, w).Valid {
						continue
					}
					if seen[st[w]] {
						return false
					}
					seen[st[w]] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceOf(t *testing.T) {
	ld := LoadInfo{StoreCount: 10}
	if d := DistanceOf(ld, StoreInfo{StoreIndex: 9}); d != 0 {
		t.Errorf("immediately previous store distance = %d, want 0", d)
	}
	if d := DistanceOf(ld, StoreInfo{StoreIndex: 5}); d != 4 {
		t.Errorf("distance = %d, want 4", d)
	}
}

func TestOutcomeFalsePositive(t *testing.T) {
	if (Outcome{Waited: true, TrueDep: false}).FalsePositive() == false {
		t.Error("unnecessary wait must be a false positive")
	}
	if (Outcome{Waited: true, TrueDep: true}).FalsePositive() {
		t.Error("justified wait is not a false positive")
	}
	if (Outcome{Waited: false}).FalsePositive() {
		t.Error("no wait, no false positive")
	}
}
