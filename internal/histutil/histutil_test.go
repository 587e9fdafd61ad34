package histutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// advanced returns a register of the given capacity bound to entries and
// advanced to their end.
func advanced(capacity int, entries ...Entry) *Reg {
	r := NewReg(capacity)
	r.Bind(entries)
	for range entries {
		r.Advance()
	}
	return r
}

// randomStream returns n pseudo-random 7-bit entries.
func randomStream(rng *rand.Rand, n int) []Entry {
	div := make([]Entry, n)
	for i := range div {
		div[i] = Entry(rng.Intn(1 << EntryBits))
	}
	return div
}

// prefixLast is the reference history: the n entries of div before
// position k, oldest first, zero-padded in front during cold start.
func prefixLast(div []Entry, k uint64, n int) []Entry {
	out := make([]Entry, n)
	lo := k - min(k, uint64(n))
	copy(out[n-int(k-lo):], div[lo:k])
	return out
}

func TestEntryPacking(t *testing.T) {
	e := NewEntry(true, false, 0b10110)
	if !e.Indirect() || e.Taken() || e.Dest() != 0b10110 {
		t.Errorf("entry fields wrong: %08b", e)
	}
	e = NewEntry(false, true, 0xffff)
	if e.Indirect() || !e.Taken() || e.Dest() != 31 {
		t.Errorf("entry should keep only %d destination bits: %08b", TargetBits, e)
	}
}

func TestRegLastOrdering(t *testing.T) {
	r := advanced(4, 1, 2, 3, 4, 5, 6)
	got := r.Last(4)
	want := []Entry{3, 4, 5, 6} // oldest first
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Last(4) = %v, want %v", got, want)
		}
	}
	if r.Count() != 6 {
		t.Errorf("Count = %d, want 6", r.Count())
	}
}

func TestRegColdStartZeroFill(t *testing.T) {
	r := advanced(8, 7)
	got := r.Last(4)
	want := []Entry{0, 0, 0, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cold Last(4) = %v, want %v", got, want)
		}
	}
}

func TestRegLastPanicsBeyondCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Last beyond capacity should panic")
		}
	}()
	NewReg(4).Last(5)
}

// TestFoldMatchesReference is the core fold invariant: the incrementally
// maintained Fold always equals the reference FoldEntries over the window.
func TestFoldMatchesReference(t *testing.T) {
	f := func(seed int64, lens []uint8) bool {
		r := NewReg(64)
		r.Bind(randomStream(rand.New(rand.NewSource(seed)), 200))
		var folds []*Fold
		for _, l := range lens {
			folds = append(folds, r.NewFold(int(l)%65, 7+int(l)%18))
		}
		for i := 0; i < 200; i++ {
			r.Advance()
			for _, fd := range folds {
				want := FoldEntries(r.Last(fd.Len), fd.Width)
				if fd.Value() != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFoldRegAgreement: the on-demand Reg.Fold equals FoldEntries.
func TestFoldRegAgreement(t *testing.T) {
	div := make([]Entry, 100)
	for i := range div {
		div[i] = Entry(i * 37 % 128)
	}
	r := NewReg(32)
	r.Bind(div)
	for i := range div {
		r.Advance()
		for _, n := range []int{0, 1, 5, 31} {
			for _, w := range []int{7, 13, 23} {
				if got, want := r.Fold(n, w), FoldEntries(r.Last(n), w); got != want {
					t.Fatalf("push %d: Fold(%d,%d)=%#x want %#x", i, n, w, got, want)
				}
			}
		}
	}
}

func TestFoldLateRegistration(t *testing.T) {
	r := advanced(16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	f := r.NewFold(8, 12) // registered after advancing: must fast-forward
	if got, want := f.Value(), FoldEntries(r.Last(8), 12); got != want {
		t.Errorf("late-registered fold = %#x, want %#x", got, want)
	}
}

// TestResetKeepsFolds: binding a register to another stream resets it to
// position 0 but leaves registered folds attached, so they track the new
// stream's history (a warm-up boundary rebinds the core's registers without
// rebinding the predictor); DropFolds detaches them.
func TestResetKeepsFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewReg(16)
	f := r.NewFold(6, 5)
	r.Bind(randomStream(rng, 30))
	for range 30 {
		r.Advance()
	}
	r.Bind(randomStream(rng, 11))
	if r.Count() != 0 || f.Value() != 0 {
		t.Fatalf("after Bind: count %d, fold %#x; want 0, 0", r.Count(), f.Value())
	}
	for i := 0; i < 10; i++ {
		r.Advance()
		if want := r.Fold(6, 5); f.Value() != want {
			t.Fatalf("fold after Bind and %d advances = %#x, want %#x", i+1, f.Value(), want)
		}
	}
	r.DropFolds()
	before := f.Value()
	r.Advance()
	if f.Value() != before {
		t.Error("a dropped fold still moves with the register")
	}
}

func TestKeyDistinguishesLengthAndContent(t *testing.T) {
	r := NewReg(16)
	r.Bind([]Entry{1, 2, 3})
	r.Advance()
	r.Advance()
	if r.Key(1) == r.Key(2) {
		t.Error("keys of different lengths must differ")
	}
	k2 := r.Key(2)
	r.Advance()
	if r.Key(2) == k2 {
		t.Error("keys of different content must differ")
	}
}

// TestAppendKeyMatchesLast: a key is the length in two bytes, then the
// entries of Last(n), at every length, during cold start and past capacity.
func TestAppendKeyMatchesLast(t *testing.T) {
	div := make([]Entry, 20)
	for i := range div {
		div[i] = Entry(i + 1)
	}
	r := NewReg(8)
	r.Bind(div)
	for i := range div {
		for n := 0; n <= r.Cap(); n++ {
			want := []byte{byte(n), byte(n >> 8)}
			for _, e := range r.Last(n) {
				want = append(want, byte(e))
			}
			if got := r.AppendKey([]byte("pc"), n); string(got) != "pc"+string(want) {
				t.Fatalf("after %d advances, AppendKey(%d) = %v, want pc+%v", i, n, got, want)
			}
		}
		r.Advance()
	}
}

func TestHashPC(t *testing.T) {
	if HashPC(0) != 0 {
		t.Error("HashPC(0) should be 0")
	}
	if HashPC(0x1000) == HashPC(0x1004) {
		t.Error("nearby PCs should hash differently")
	}
	if HashPCTag(0x1000) == HashPC(0x1000) {
		t.Error("tag and index hashes should differ")
	}
}

func TestMixSpreadsLowBits(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 256; i++ {
		seen[Mix(i, 0)&1023] = true
	}
	if len(seen) < 200 {
		t.Errorf("Mix spreads poorly: %d distinct low-10-bit values of 256", len(seen))
	}
}

func TestPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 1024} {
		if !Pow2(v) {
			t.Errorf("Pow2(%d) = false", v)
		}
	}
	for _, v := range []int{0, -2, 3, 12, 1023} {
		if Pow2(v) {
			t.Errorf("Pow2(%d) = true", v)
		}
	}
}

func TestFoldZeroLength(t *testing.T) {
	r := NewReg(8)
	f := r.NewFold(0, 16)
	r.Bind(randomStream(rand.New(rand.NewSource(2)), 10))
	for i := 0; i < 10; i++ {
		r.Advance()
		if f.Value() != 0 {
			t.Fatal("zero-length fold must stay 0")
		}
	}
}

// TestViewMatchesStreamPrefix is the view invariant: a register bound to a
// stream and driven by any sequence of Advance and Seek calls — seeks to 0,
// past the capacity, forward and back — holds exactly the history of its
// position: Count, Last, LastInto, AppendKey, Fold and every registered fold
// (zero length and full capacity included) agree with the stream prefix.
func TestViewMatchesStreamPrefix(t *testing.T) {
	const capacity = 32
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		div := randomStream(rng, 1+rng.Intn(4*capacity))
		r := NewReg(capacity)
		var folds []*Fold
		for _, n := range []int{0, 1, 5, 17, capacity} {
			folds = append(folds, r.NewFold(n, 1+rng.Intn(64)))
		}
		r.Bind(div)
		var k uint64
		for op := 0; op < 300; op++ {
			switch x := rng.Intn(10); {
			case x < 6 && k < uint64(len(div)):
				r.Advance()
				k++
			case x < 7:
				k = 0
				r.Seek(k)
			default:
				k = uint64(rng.Intn(len(div) + 1))
				r.Seek(k)
			}
			if r.Count() != k {
				t.Logf("op %d: Count %d, want %d", op, r.Count(), k)
				return false
			}
			for _, fd := range folds {
				if want := FoldEntries(prefixLast(div, k, fd.Len), fd.Width); fd.Value() != want {
					t.Logf("op %d at %d: fold(%d,%d) = %#x, want %#x", op, k, fd.Len, fd.Width, fd.Value(), want)
					return false
				}
			}
			n := rng.Intn(capacity + 1)
			want := prefixLast(div, k, n)
			got := make([]Entry, n)
			r.LastInto(got)
			key := []byte{byte(n), byte(n >> 8)}
			for i, e := range want {
				key = append(key, byte(e))
				if got[i] != e || r.Last(n)[i] != e {
					t.Logf("op %d at %d: Last(%d) = %v, want %v", op, k, n, got, want)
					return false
				}
			}
			if r.Key(n) != string(key) || r.Fold(n, 23) != FoldEntries(want, 23) {
				t.Logf("op %d at %d: Key or Fold of length %d disagrees with the prefix", op, k, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeekBeyondStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Seek beyond the bound stream should panic")
		}
	}()
	r := NewReg(4)
	r.Bind([]Entry{1, 2})
	r.Seek(3)
}
