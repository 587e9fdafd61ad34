// Package histutil implements the context-history machinery shared by the
// path-sensitive memory dependence predictors: the global divergent-branch
// history register (a view of a stream of history entries), history folding,
// and the PC hash functions from §IV-B of the PHAST paper.
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

// Reg is a global history register of divergent-branch entries, kept as a
// view of an entry stream: it is bound to the entries of every divergent
// branch, oldest first (in the core, the trace's DivEntries), and holds only
// its position in them; its history is the entries before that position.
// The core binds three registers to its trace's one stream: one advanced at
// decode (used for predictions), one advanced at commit (used to train the
// predictor with a squash-free history), and one moved to a load's position
// for detect-time training. A register never writes its stream, so one
// stream can back any number of registers, on any goroutines.
//
// The register also exposes Count, its position, which implements the
// paper's global branch counter: loads and stores copy it at decode, and the
// history length of a conflict is the difference of the two copies plus one.
type Reg struct {
	div   []Entry // the bound stream; read, never written
	count uint64  // the position: entries div[:count] are the history
	folds []*Fold
	cap   int
}

// NewReg returns an unbound history register able to serve histories up to
// capacity entries long. Capacity must cover the longest history any
// predictor uses.
func NewReg(capacity int) *Reg {
	return &Reg{cap: max(capacity, 1)}
}

// Bind binds the register to the entry stream div (oldest first) at
// position 0: no history, zero count. Registered folds stay registered and
// read 0 (an empty history folds to 0), so a predictor bound once keeps
// seeing the register's history across rebinds. Bind(nil) unbinds it.
func (r *Reg) Bind(div []Entry) {
	r.div = div
	r.Seek(0)
}

// Advance moves the register one entry on: the stream's next entry becomes
// the youngest history entry, and every registered fold advances by it.
func (r *Reg) Advance() {
	entering := r.div[r.count]
	for _, f := range r.folds {
		var leaving Entry
		if f.Len > 0 && r.count >= uint64(f.Len) {
			leaving = r.div[r.count-uint64(f.Len)]
		}
		f.update(entering, leaving)
	}
	r.count++
}

// Seek moves the register to position k, the history of a micro-op that k
// divergent branches precede, and recomputes every registered fold. The
// core uses it to rewind the decode-time history on a squash — the hardware
// equivalent of restoring a history checkpoint. With no folds registered it
// is O(1).
func (r *Reg) Seek(k uint64) {
	if k > uint64(len(r.div)) {
		panic("histutil: seek beyond the bound stream")
	}
	r.count = k
	for _, f := range r.folds {
		f.val = FoldEntries(r.last(f.Len), f.Width)
	}
}

// Count returns the register's position: the number of divergent branches
// in its history (the global divergent-branch counter).
func (r *Reg) Count() uint64 { return r.count }

// DropFolds unregisters every fold, for rebinding the register to another
// predictor, which registers its own.
func (r *Reg) DropFolds() {
	clear(r.folds)
	r.folds = r.folds[:0]
}

// Cap returns the longest history the register can reproduce.
func (r *Reg) Cap() int { return r.cap }

// last returns the up to n youngest entries the stream holds, oldest first:
// fewer than n only during cold start. It panics if n exceeds the capacity.
func (r *Reg) last(n int) []Entry {
	if n > r.cap {
		panic("histutil: history request exceeds register capacity")
	}
	return r.div[r.count-min(r.count, uint64(n)) : r.count]
}

// Last returns the n youngest entries, oldest first. It panics if n exceeds
// the register capacity; if fewer than n entries precede the position, the
// missing leading entries are zero (cold history).
func (r *Reg) Last(n int) []Entry {
	out := make([]Entry, n)
	r.LastInto(out)
	return out
}

// LastInto fills dst with the len(dst) youngest entries, oldest first,
// without allocating.
func (r *Reg) LastInto(dst []Entry) {
	src := r.last(len(dst))
	pad := len(dst) - len(src)
	clear(dst[:pad])
	copy(dst[pad:], src)
}

// Fold compresses the n youngest entries into width bits: the XOR of each
// entry left-rotated by its age (youngest = age 0). This is the reference
// form of the incrementally maintained Fold type; the two always agree. A
// zero-length history folds to 0, and so do the zero entries of a cold
// history. Width must be in (0, 64].
func (r *Reg) Fold(n, width int) uint64 { return FoldEntries(r.last(n), width) }

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
	src := r.last(n)
	b = append(b, byte(n), byte(n>>8))
	b = append(b, make([]byte, n-len(src))...) // missing leading entries stay zero
	for _, e := range src {
		b = append(b, byte(e))
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
