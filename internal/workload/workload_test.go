package workload

import (
	"testing"

	"repro/internal/isa"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same sequence")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds should diverge immediately")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestRNGForkIndependent(t *testing.T) {
	r := NewRNG(7)
	f1 := r.Fork()
	// Draw from parent: the fork's stream must be unaffected.
	want := make([]uint64, 5)
	probe := NewRNG(7)
	probeFork := probe.Fork()
	for i := range want {
		want[i] = probeFork.Uint64()
	}
	r.Uint64()
	r.Uint64()
	for i := range want {
		if got := f1.Uint64(); got != want[i] {
			t.Fatal("fork stream must be independent of later parent draws")
		}
	}
}

func TestPatternPeriodicity(t *testing.T) {
	p := newPattern(NewRNG(3), 8, 5, 0)
	var first []int
	for i := 0; i < 5; i++ {
		first = append(first, p.next())
	}
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 5; i++ {
			if got := p.next(); got != first[i] {
				t.Fatalf("noise-free pattern must repeat with its period")
			}
		}
	}
}

func TestEmitterStack(t *testing.T) {
	e := newEmitter(1000, 1)
	base := e.SP()
	f := e.PushFrame(64)
	if f != base-64 || e.SP() != f {
		t.Error("PushFrame should grow the stack down")
	}
	e.PopFrame(64)
	if e.SP() != base {
		t.Error("PopFrame should restore the stack pointer")
	}
}

func TestEmitterCallStack(t *testing.T) {
	e := newEmitter(1000, 1)
	e.Call(0x100, 0x200)
	if e.Depth() != 1 {
		t.Error("Call should push the return address")
	}
	e.Ret(0x204)
	if e.Depth() != 0 {
		t.Error("Ret should pop")
	}
	ret := e.out[len(e.out)-1]
	if ret.Target() != 0x104 {
		t.Errorf("return target = %#x, want %#x", ret.Target(), 0x104)
	}
	defer func() {
		if recover() == nil {
			t.Error("Ret on empty call stack should panic")
		}
	}()
	e.Ret(0x300)
}

func TestEmitterCondFallthrough(t *testing.T) {
	e := newEmitter(10, 1)
	e.Cond(0x100, 1, false, 0x200)
	if in := e.out[0]; in.Taken || in.Target() != 0x104 {
		t.Errorf("not-taken branch destination = %#x, want fall-through", in.Target())
	}
	e.Cond(0x108, 1, true, 0x200)
	if in := e.out[1]; !in.Taken || in.Target() != 0x200 {
		t.Errorf("taken branch destination = %#x, want %#x", in.Target(), 0x200)
	}
}

func TestGenerateCutsAtN(t *testing.T) {
	p, err := ByName("519.lbm")
	if err != nil {
		t.Fatal(err)
	}
	insts := Generate(p, 5000, 0)
	if len(insts) != 5000 {
		t.Fatalf("Generate returned %d instructions, want 5000", len(insts))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, err := ByName("511.povray")
	if err != nil {
		t.Fatal(err)
	}
	a := Generate(p, 3000, 0)
	b := Generate(p, 3000, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs between identical generations", i)
		}
	}
	c := Generate(p, 3000, 999)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different streams")
	}
}

// TestSuiteSanity checks every registered app: generation works, the mix is
// within realistic bounds, and PCs do not collide across kinds.
func TestSuiteSanity(t *testing.T) {
	if len(Names()) < 20 {
		t.Fatalf("suite has only %d apps", len(Names()))
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			insts := Generate(p, 20000, 0)
			var loads, stores, branches int
			kindByPC := map[uint64]isa.Kind{}
			for i := range insts {
				in := &insts[i]
				switch in.Kind {
				case isa.Load:
					loads++
				case isa.Store:
					stores++
				case isa.Branch:
					branches++
				}
				if in.IsMem() && in.Size == 0 {
					t.Fatalf("inst %d: zero-size memory op", i)
				}
				if prev, ok := kindByPC[in.PC]; ok && prev != in.Kind {
					t.Fatalf("PC %#x used for both %v and %v", in.PC, prev, in.Kind)
				}
				kindByPC[in.PC] = in.Kind
			}
			n := len(insts)
			if f := float64(loads) / float64(n); f < 0.08 || f > 0.50 {
				t.Errorf("load fraction %.2f out of realistic bounds", f)
			}
			if f := float64(stores) / float64(n); f < 0.02 || f > 0.40 {
				t.Errorf("store fraction %.2f out of realistic bounds", f)
			}
			if f := float64(branches) / float64(n); f < 0.02 || f > 0.35 {
				t.Errorf("branch fraction %.2f out of realistic bounds", f)
			}
		})
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	Register(Program{Name: "519.lbm", Gen: func(*Emitter) {}})
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("999.doesnotexist"); err == nil {
		t.Error("unknown program should error")
	}
}

// TestRegionsDisjoint: no two apps may share address-space regions; a
// collision would create cross-app aliasing in shared cache studies.
func TestRegionsDisjoint(t *testing.T) {
	seen := map[uint64]int{}
	for _, app := range []int{500, 502, 511, 541, 557} {
		r := regionsFor(app)
		for _, base := range []uint64{r.heap, r.table, r.deep, r.filler} {
			if prev, ok := seen[base]; ok {
				t.Errorf("region %#x shared by apps %d and %d", base, prev, app)
			}
			seen[base] = app
		}
	}
}
