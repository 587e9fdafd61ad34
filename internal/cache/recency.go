package cache

// Recency orders the ways of each set of a set-associative array by last
// use, for least-recently-used replacement, in one byte per way and one per
// set. A touch writes the set's next stamp into the way, so among the ways
// touched since the last Reset the oldest stamp is the least recently used;
// untouched ways read 0. When a set's clock would wrap, its stamps are first
// renumbered 0..ways-1 in recency order, which keeps that order and leaves
// at least 255-ways touches until the next renumbering.
//
// The owner keeps validity: its victim is the first invalid way, else the
// valid way with the oldest stamp (see Level.probe). Every valid way has been
// touched since the last Reset, so its stamp is unique in its set.
type Recency struct {
	ways  int
	stamp []uint8 // sets × ways
	clock []uint8 // per set: the newest stamp handed out
}

// NewRecency builds the recency state of a sets × ways array, all ways
// untouched.
func NewRecency(sets, ways int) Recency {
	if ways <= 0 || ways > 128 {
		panic("cache: recency needs 1..128 ways")
	}
	return Recency{ways: ways, stamp: make([]uint8, sets*ways), clock: make([]uint8, sets)}
}

// Stamps returns the stamps of set s, indexed by way: a lower stamp is an
// older use.
func (r *Recency) Stamps(s int) []uint8 {
	return r.stamp[s*r.ways : (s+1)*r.ways]
}

// Touch marks way w of set s most recently used.
func (r *Recency) Touch(s, w int) {
	c := r.clock[s]
	if c == 255 {
		c = r.renumber(s)
	}
	c++
	r.clock[s] = c
	r.stamp[s*r.ways+w] = c
}

// renumber rewrites set s's stamps as their ranks (the number of the set's
// ways with an older stamp) and returns the new clock, the highest rank a
// set can hold.
func (r *Recency) renumber(s int) uint8 {
	st := r.Stamps(s)
	var rank [128]uint8
	for i, a := range st {
		for _, b := range st {
			if b < a {
				rank[i]++
			}
		}
	}
	copy(st, rank[:len(st)])
	return uint8(r.ways - 1)
}

// Reset returns every way to untouched.
func (r *Recency) Reset() {
	clear(r.stamp)
	clear(r.clock)
}
