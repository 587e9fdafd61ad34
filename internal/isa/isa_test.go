package isa

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestInstSize pins the 24-byte, padding-free layout: traces keep every
// micro-op resident, so a field added to Inst grows every simulation's
// memory by its size per µop.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want 24", got)
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		Nop: "nop", ALU: "alu", Load: "load", Store: "store", Branch: "branch",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind should include the number, got %q", got)
	}
}

func TestBranchClassDivergent(t *testing.T) {
	divergent := map[BranchClass]bool{
		NotBranch: false, Direct: false, Call: false,
		Cond: true, Indirect: true, IndirectCall: true, Return: true,
	}
	for c, want := range divergent {
		if got := c.Divergent(); got != want {
			t.Errorf("%v.Divergent() = %t, want %t", c, got, want)
		}
	}
}

func TestBranchClassIndirectTarget(t *testing.T) {
	indirect := map[BranchClass]bool{
		Cond: false, Direct: false, Call: false,
		Indirect: true, IndirectCall: true, Return: true,
	}
	for c, want := range indirect {
		if got := c.IndirectTarget(); got != want {
			t.Errorf("%v.IndirectTarget() = %t, want %t", c, got, want)
		}
	}
}

func TestOverlapBasics(t *testing.T) {
	cases := []struct {
		a1   uint64
		s1   uint8
		a2   uint64
		s2   uint8
		want bool
	}{
		{100, 8, 100, 8, true},   // identical
		{100, 8, 104, 8, true},   // partial
		{100, 8, 108, 8, false},  // adjacent
		{100, 8, 99, 1, false},   // just before
		{100, 8, 107, 1, true},   // last byte
		{100, 0, 100, 8, false},  // zero size never overlaps
		{100, 8, 50, 1, false},   // far apart
		{0, 255, 254, 255, true}, // large sizes
	}
	for _, c := range cases {
		if got := Overlap(c.a1, c.s1, c.a2, c.s2); got != c.want {
			t.Errorf("Overlap(%d,%d,%d,%d) = %t, want %t", c.a1, c.s1, c.a2, c.s2, got, c.want)
		}
	}
}

func TestOverlapSymmetric(t *testing.T) {
	f := func(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
		// Bound addresses away from the top so a+s never wraps.
		a1 %= 1 << 48
		a2 %= 1 << 48
		return Overlap(a1, s1, a2, s2) == Overlap(a2, s2, a1, s1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlapMatchesByteScan(t *testing.T) {
	f := func(a1 uint64, s1 uint8, delta int8, s2 uint8) bool {
		a1 = a1%1000 + 1000
		a2 := uint64(int64(a1) + int64(delta))
		want := false
		for b := a2; b < a2+uint64(s2); b++ {
			if b >= a1 && b < a1+uint64(s1) {
				want = true
			}
		}
		return Overlap(a1, s1, a2, s2) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCovers(t *testing.T) {
	st := Inst{Kind: Store, Addr: 100, Size: 8}
	if !st.Covers(100, 8) || !st.Covers(104, 4) || !st.Covers(107, 1) {
		t.Error("store should cover contained ranges")
	}
	if st.Covers(96, 8) || st.Covers(104, 8) || st.Covers(108, 1) {
		t.Error("store should not cover escaping ranges")
	}
}

func TestInstPredicates(t *testing.T) {
	ld := Inst{Kind: Load, Addr: 8, Size: 8}
	st := Inst{Kind: Store, Addr: 12, Size: 8}
	br := Inst{Kind: Branch, Class: Cond}
	if !ld.IsLoad() || ld.IsStore() || !ld.IsMem() || ld.IsBranch() {
		t.Error("load predicates wrong")
	}
	if !st.IsStore() || st.IsLoad() || !st.IsMem() {
		t.Error("store predicates wrong")
	}
	if !br.IsBranch() || br.IsMem() || !br.Divergent() {
		t.Error("branch predicates wrong")
	}
	if !ld.Overlaps(&st) || !st.Overlaps(&ld) {
		t.Error("overlapping memory ops should report overlap")
	}
	if ld.Overlaps(&br) || br.Overlaps(&ld) {
		t.Error("branches never overlap memory")
	}
}

func TestInstString(t *testing.T) {
	insts := []Inst{
		{PC: 0x10, Kind: Load, Dst: 3, Addr: 0x100, Size: 8},
		{PC: 0x14, Kind: Store, SrcB: 4, Addr: 0x200, Size: 4},
		{PC: 0x18, Kind: Branch, Class: Cond, Taken: true, Addr: 0x40},
		{PC: 0x1c, Kind: ALU, Dst: 1, SrcA: 2, SrcB: 3, Lat: 4},
		{PC: 0x20, Kind: Nop},
	}
	for i := range insts {
		if s := insts[i].String(); s == "" {
			t.Errorf("inst %d: empty String()", i)
		}
	}
}
