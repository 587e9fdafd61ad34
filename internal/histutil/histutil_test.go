package histutil

import (
	"testing"
	"testing/quick"
)

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
	r := NewReg(4)
	for i := 1; i <= 6; i++ {
		r.Push(Entry(i))
	}
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
	r := NewReg(8)
	r.Push(7)
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
	f := func(seed uint32, lens []uint8) bool {
		r := NewReg(64)
		var folds []*Fold
		for _, l := range lens {
			folds = append(folds, r.NewFold(int(l)%65, 7+int(l)%18))
		}
		x := uint64(seed) | 1
		for i := 0; i < 200; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			r.Push(Entry(x & 0x7f))
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
	r := NewReg(32)
	for i := 0; i < 100; i++ {
		r.Push(Entry(i * 37 % 128))
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
	r := NewReg(16)
	for i := 0; i < 10; i++ {
		r.Push(Entry(i + 1))
	}
	f := r.NewFold(8, 12) // registered after pushes: must fast-forward
	if got, want := f.Value(), FoldEntries(r.Last(8), 12); got != want {
		t.Errorf("late-registered fold = %#x, want %#x", got, want)
	}
}

func TestResetTo(t *testing.T) {
	r := NewReg(8)
	f := r.NewFold(4, 10)
	for i := 0; i < 20; i++ {
		r.Push(Entry(i % 128))
	}
	entries := []Entry{9, 8, 7}
	r.ResetTo(entries, 3)
	if r.Count() != 3 {
		t.Errorf("Count after ResetTo = %d, want 3", r.Count())
	}
	got := r.Last(3)
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("Last after ResetTo = %v, want %v", got, entries)
		}
	}
	if want := FoldEntries(entries, 10); f.Value() != want {
		t.Errorf("fold after ResetTo = %#x, want %#x", f.Value(), want)
	}
	// Folds must keep tracking correctly after the reset.
	r.Push(42)
	if want := FoldEntries(r.Last(4), 10); f.Value() != want {
		t.Errorf("fold after ResetTo+Push = %#x, want %#x", f.Value(), want)
	}
}

// TestResetKeepsFolds: Reset empties the register but leaves registered
// folds attached, so they track the history pushed after it (a warm-up
// boundary resets the core's registers without rebinding the predictor);
// DropFolds detaches them.
func TestResetKeepsFolds(t *testing.T) {
	r := NewReg(16)
	f := r.NewFold(6, 5)
	for i := 0; i < 30; i++ {
		r.Push(Entry(i*7 + 1))
	}
	r.Reset()
	if r.Count() != 0 || f.Value() != 0 {
		t.Fatalf("after Reset: count %d, fold %#x; want 0, 0", r.Count(), f.Value())
	}
	for i := 0; i < 10; i++ {
		r.Push(Entry(i*3 + 2))
		if want := r.Fold(6, 5); f.Value() != want {
			t.Fatalf("fold after Reset and %d pushes = %#x, want %#x", i+1, f.Value(), want)
		}
	}
	r.DropFolds()
	before := f.Value()
	r.Push(99)
	if f.Value() != before {
		t.Error("a dropped fold still moves with the register")
	}
}

func TestResetToTruncatesToCapacity(t *testing.T) {
	r := NewReg(4)
	entries := []Entry{1, 2, 3, 4, 5, 6}
	r.ResetTo(entries, 6)
	got := r.Last(4)
	want := []Entry{3, 4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Last after big ResetTo = %v, want %v", got, want)
		}
	}
}

func TestKeyDistinguishesLengthAndContent(t *testing.T) {
	r := NewReg(16)
	r.Push(1)
	r.Push(2)
	if r.Key(1) == r.Key(2) {
		t.Error("keys of different lengths must differ")
	}
	k2 := r.Key(2)
	r.Push(3)
	if r.Key(2) == k2 {
		t.Error("keys of different content must differ")
	}
}

// TestAppendKeyMatchesLast: a key is the length in two bytes, then the
// entries of Last(n), at every length, before and after the ring wraps.
func TestAppendKeyMatchesLast(t *testing.T) {
	r := NewReg(8)
	for i := 0; i < 20; i++ {
		for n := 0; n <= r.Cap(); n++ {
			want := []byte{byte(n), byte(n >> 8)}
			for _, e := range r.Last(n) {
				want = append(want, byte(e))
			}
			if got := r.AppendKey([]byte("pc"), n); string(got) != "pc"+string(want) {
				t.Fatalf("after %d pushes, AppendKey(%d) = %v, want pc+%v", i, n, got, want)
			}
		}
		r.Push(Entry(i + 1))
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
	for i := 0; i < 10; i++ {
		r.Push(Entry(i))
		if f.Value() != 0 {
			t.Fatal("zero-length fold must stay 0")
		}
	}
}

// TestResetToThenPushEquivalence: a register rebuilt with ResetTo must be
// indistinguishable (Last, Fold, registered folds) from a fresh register
// that saw the same entries — the property squash-time history rewind
// depends on.
func TestResetToThenPushEquivalence(t *testing.T) {
	f := func(pre, post []byte) bool {
		a := NewReg(32)
		fa := a.NewFold(12, 17)
		b := NewReg(32)
		fb := b.NewFold(12, 17)

		entries := make([]Entry, 0, len(pre))
		for _, v := range pre {
			e := Entry(v & 0x7f)
			entries = append(entries, e)
			b.Push(e)
		}
		// a gets the same prefix via ResetTo instead of pushes.
		a.ResetTo(entries, uint64(len(entries)))

		for _, v := range post {
			e := Entry(v & 0x7f)
			a.Push(e)
			b.Push(e)
		}
		if fa.Value() != fb.Value() {
			return false
		}
		n := 12
		la, lb := a.Last(n), b.Last(n)
		for i := range la {
			if la[i] != lb[i] {
				return false
			}
		}
		return a.Fold(20, 23) == b.Fold(20, 23) && a.Key(9) == b.Key(9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
