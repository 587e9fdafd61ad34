package histutil

// Fold is an incrementally maintained folded history: the XOR of the last
// Len entries, each rotated by its age, reduced to Width bits. Hardware
// TAGE-family predictors maintain exactly such circular shift registers; the
// incremental update makes long histories (MDP-TAGE reaches 2000 branches)
// O(1) per branch instead of O(Len) per prediction.
//
// Invariant (verified by TestFoldMatchesReference):
//
//	Value() == XOR_{j=0..Len-1} rotl(entry[age j], j mod Width)
//
// NewFold derives the rotation of the leaving entry and the width mask once,
// so an update neither divides nor branches on the rotation.
type Fold struct {
	Len   int
	Width int
	val   uint64
	leave uint   // (Len-1) mod Width: the rotation of the leaving entry
	mask  uint64 // the low Width bits
}

// Value returns the current folded history.
func (f *Fold) Value() uint64 { return f.val }

func rotl(x uint64, k, w int) uint64 {
	k %= w
	if k == 0 {
		return x & (1<<w - 1)
	}
	x &= 1<<w - 1
	return ((x << k) | (x >> (w - k))) & (1<<w - 1)
}

// update advances the fold by one entry: entering is the new youngest
// entry, and leaving is the entry that just aged out of the window (zero
// during cold start). Both rotations act on values already reduced to Width
// bits, so a zero rotation needs no special case (the right shift by Width
// yields zero).
func (f *Fold) update(entering, leaving Entry) {
	if f.Len == 0 {
		return // zero-length history folds to 0 forever
	}
	w := uint(f.Width)
	l := uint64(leaving) & f.mask
	v := f.val ^ (l<<f.leave|l>>(w-f.leave))&f.mask
	f.val = (v<<1|v>>(w-1))&f.mask ^ uint64(entering)&f.mask
}

// NewFold registers an incrementally maintained fold of the last length
// entries into width bits. Length must not exceed the register capacity and
// width must be in (0, 64].
func (r *Reg) NewFold(length, width int) *Fold {
	if length > r.cap {
		panic("histutil: fold length exceeds register capacity")
	}
	if width <= 0 || width > 64 {
		panic("histutil: fold width out of range")
	}
	if length < 0 {
		panic("histutil: negative fold length")
	}
	f := &Fold{Len: length, Width: width, mask: 1<<width - 1}
	if length > 0 {
		f.leave = uint((length - 1) % width)
	}
	// Fold the history already behind the position, so late registration
	// agrees with the reference fold.
	f.val = FoldEntries(r.last(length), width)
	r.folds = append(r.folds, f)
	return f
}
