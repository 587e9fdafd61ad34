// Package histutil implements the context-history machinery shared by the
// path-sensitive memory dependence predictors: the global divergent-branch
// history register, history folding, and the PC hash functions from §IV-B of
// the PHAST paper.
//
// Each history entry describes one divergent branch with a fixed number of
// bits so histories of any length can be processed in parallel in hardware:
// one bit for the branch type (conditional vs indirect), one bit for the
// outcome (taken / not taken), and the five least-significant bits of the
// destination actually taken. Seven bits per entry in total.
package histutil

import "math/bits"

// EntryBits is the width of one history entry.
const EntryBits = 7

// TargetBits is how many low bits of the branch destination each entry keeps.
// The paper's sensitivity analysis found five bits suffice to avoid most
// aliasing.
const TargetBits = 5

// Entry is one divergent-branch history record, packed into the low
// EntryBits bits:
//
//	bit 6: type (0 = conditional, 1 = indirect)
//	bit 5: taken (1 = taken)
//	bits 4..0: destination low bits (the branch target if taken,
//	           fall-through otherwise)
type Entry uint8

// NewEntry packs a history entry. dest is the address the branch actually
// continued at (target if taken, fall-through otherwise).
func NewEntry(indirect, taken bool, dest uint64) Entry {
	var e Entry
	if indirect {
		e |= 1 << 6
	}
	if taken {
		e |= 1 << 5
	}
	e |= Entry(dest & ((1 << TargetBits) - 1))
	return e
}

// Indirect reports whether the entry records an indirect branch.
func (e Entry) Indirect() bool { return e&(1<<6) != 0 }

// Taken reports whether the branch was taken.
func (e Entry) Taken() bool { return e&(1<<5) != 0 }

// Dest returns the recorded low destination bits.
func (e Entry) Dest() uint8 { return uint8(e) & ((1 << TargetBits) - 1) }

// Reg is a global history register of divergent-branch entries. The core
// keeps two instances: one updated at decode (used for predictions) and one
// updated at commit (used to train the predictor with a squash-free history).
//
// The register also exposes Count, the running number of divergent branches
// pushed, which implements the paper's global branch counter: loads and
// stores copy it at decode, and the history length of a conflict is the
// difference of the two copies plus one.
type Reg struct {
	buf   []Entry
	head  int    // next write position
	count uint64 // total entries ever pushed
	folds []*Fold
}

// NewReg returns a history register able to serve histories up to capacity
// entries long. Capacity must cover the longest history any predictor uses.
func NewReg(capacity int) *Reg {
	if capacity <= 0 {
		capacity = 1
	}
	return &Reg{buf: make([]Entry, capacity)}
}

// Push records a divergent branch as the new youngest history entry and
// advances every registered fold.
func (r *Reg) Push(e Entry) {
	// Capture leaving entries before the ring slot is overwritten (a fold of
	// length == capacity evicts exactly the slot being written).
	for _, f := range r.folds {
		var leaving Entry
		if f.Len > 0 && r.count >= uint64(f.Len) {
			pos := r.head - f.Len
			if pos < 0 {
				pos += len(r.buf)
			}
			leaving = r.buf[pos]
		}
		f.update(e, leaving)
	}
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.count++
}

// Count returns the total number of entries ever pushed (the global
// divergent-branch counter).
func (r *Reg) Count() uint64 { return r.count }

// Reset empties the register: no history, zero count. Registered folds stay
// registered and are recomputed (an empty history folds to 0), so a
// predictor bound once keeps seeing the register's history across resets.
func (r *Reg) Reset() { r.ResetTo(nil, 0) }

// DropFolds unregisters every fold, for rebinding the register to another
// predictor, which registers its own.
func (r *Reg) DropFolds() {
	clear(r.folds)
	r.folds = r.folds[:0]
}

// ResetTo restores the register to hold exactly the given entries (oldest
// first, at most capacity retained) with the given logical count, and
// recomputes every registered fold. The core uses it to rewind the
// decode-time history on a squash — the hardware equivalent of restoring a
// history checkpoint.
func (r *Reg) ResetTo(entries []Entry, count uint64) {
	if len(entries) > len(r.buf) {
		entries = entries[len(entries)-len(r.buf):]
	}
	// Reads only ever touch the min(count, capacity) youngest slots. Slots
	// beyond len(entries) are reachable only when count exceeds the entries
	// provided, and must then read as zero (cold history); otherwise stale
	// contents are unobservable and zeroing them would be wasted work.
	if count > uint64(len(entries)) {
		for i := len(entries); i < len(r.buf); i++ {
			r.buf[i] = 0
		}
	}
	copy(r.buf, entries)
	r.head = len(entries) % len(r.buf)
	r.count = count
	for _, f := range r.folds {
		n := f.Len
		if n > len(entries) {
			n = len(entries)
		}
		f.val = FoldEntries(entries[len(entries)-n:], f.Width)
	}
}

// Cap returns the longest history the register can reproduce.
func (r *Reg) Cap() int { return len(r.buf) }

// Last returns the n youngest entries, oldest first. It panics if n exceeds
// the register capacity; if fewer than n entries were ever pushed, the
// missing leading entries are zero (cold history).
func (r *Reg) Last(n int) []Entry {
	if n > len(r.buf) {
		panic("histutil: history request exceeds register capacity")
	}
	out := make([]Entry, n)
	r.LastInto(out)
	return out
}

// LastInto fills dst with the len(dst) youngest entries, oldest first,
// without allocating.
func (r *Reg) LastInto(dst []Entry) {
	n := len(dst)
	if n > len(r.buf) {
		panic("histutil: history request exceeds register capacity")
	}
	avail := n
	if r.count < uint64(n) {
		avail = int(r.count)
	}
	for i := 0; i < n-avail; i++ {
		dst[i] = 0
	}
	pos := r.head - avail
	if pos < 0 {
		pos += len(r.buf)
	}
	for i := n - avail; i < n; i++ {
		dst[i] = r.buf[pos]
		pos++
		if pos == len(r.buf) {
			pos = 0
		}
	}
}

// Fold compresses the n youngest entries into width bits: the XOR of each
// entry left-rotated by its age (youngest = age 0). This is the reference
// form of the incrementally maintained Fold type; the two always agree. A
// zero-length history folds to 0. Width must be in (0, 64].
func (r *Reg) Fold(n, width int) uint64 {
	if width <= 0 || width > 64 {
		panic("histutil: fold width out of range")
	}
	if n == 0 {
		return 0
	}
	var folded uint64
	avail := n
	if r.count < uint64(n) {
		avail = int(r.count)
	}
	pos := r.head
	for age := 0; age < avail; age++ {
		pos--
		if pos < 0 {
			pos += len(r.buf)
		}
		folded ^= rotl(uint64(r.buf[pos]), age, width)
	}
	return folded & (1<<width - 1)
}

// FoldEntries folds an explicit entry slice (oldest first) into width bits,
// with the same layout as Reg.Fold. It is the reference implementation used
// by tests and by unlimited predictors that materialise exact histories.
func FoldEntries(entries []Entry, width int) uint64 {
	if width <= 0 || width > 64 {
		panic("histutil: fold width out of range")
	}
	var folded uint64
	for age := 0; age < len(entries); age++ {
		folded ^= rotl(uint64(entries[len(entries)-1-age]), age, width)
	}
	return folded & (1<<width - 1)
}

// Key builds an exact (uncompressed) history key from the n youngest
// entries, for the unlimited predictors where no aliasing is allowed: the
// length in two bytes, so distinct lengths never collide, then one byte per
// entry, oldest first (as Last(n)).
func (r *Reg) Key(n int) string { return string(r.AppendKey(nil, n)) }

// AppendKey appends Key(n) to b. Built into a reused buffer, a key probes a
// map (m[string(b)]) without allocating.
func (r *Reg) AppendKey(b []byte, n int) []byte {
	if n > len(r.buf) {
		panic("histutil: history request exceeds register capacity")
	}
	b = append(b, byte(n), byte(n>>8))
	b = append(b, make([]byte, n)...) // missing leading entries stay zero
	avail := int(min(r.count, uint64(n)))
	dst := b[len(b)-avail:]
	pos := r.head - avail
	if pos < 0 {
		// The entries wrap: the older part ends the ring.
		pos += len(r.buf)
		for i, e := range r.buf[pos:] {
			dst[i] = byte(e)
		}
		dst, pos = dst[len(r.buf)-pos:], 0
	}
	for i := range dst {
		dst[i] = byte(r.buf[pos+i])
	}
	return b
}

// HashPC computes the index hash of §IV-B: PC ⊕ (PC>>2) ⊕ (PC>>5). All
// predictors in this repository use it, as the paper does, because it
// improves every evaluated predictor.
func HashPC(pc uint64) uint64 {
	return pc ^ (pc >> 2) ^ (pc >> 5)
}

// HashPCTag computes the tag hash of §IV-B, offsetting the PC by 3 and 7.
func HashPCTag(pc uint64) uint64 {
	return (pc >> 3) ^ (pc >> 7)
}

// Mix combines a hashed PC with a folded history. A multiplicative finisher
// spreads the XOR combination across the word so that set indexing uses
// well-mixed low bits.
func Mix(pcHash, folded uint64) uint64 {
	x := pcHash ^ folded*0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// Pow2 reports whether v is a power of two (used by table geometry checks).
func Pow2(v int) bool { return v > 0 && bits.OnesCount(uint(v)) == 1 }
