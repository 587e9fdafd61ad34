package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/workload"
)

func testTrace(t testing.TB, app string, n int) *Trace {
	t.Helper()
	p, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	return Generate(p, n, 0)
}

func TestMixSumsToTotal(t *testing.T) {
	tr := testTrace(t, "511.povray", 10000)
	m := tr.MixOf()
	if m.Total != 10000 {
		t.Fatalf("total = %d", m.Total)
	}
	if m.Loads+m.Stores+m.Branches+m.ALU+m.Nops != m.Total {
		t.Error("mix categories must partition the stream")
	}
	if m.Divergent > m.Branches {
		t.Error("divergent branches cannot exceed branches")
	}
	if m.String() == "" {
		t.Error("empty mix rendering")
	}
}

func TestCodecRoundTripSuite(t *testing.T) {
	tr := testTrace(t, "502.gcc_1", 5000)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Insts) != len(tr.Insts) {
		t.Fatalf("decoded %s/%d, want %s/%d", got.Name, len(got.Insts), tr.Name, len(tr.Insts))
	}
	for i := range tr.Insts {
		if got.Insts[i] != tr.Insts[i] {
			t.Fatalf("inst %d: %v != %v", i, got.Insts[i], tr.Insts[i])
		}
	}
}

// TestCodecRoundTripRandom: property-based round trip over synthetic insts.
func TestCodecRoundTripRandom(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "prop"}
		for i := 0; i < int(n); i++ {
			in := isa.Inst{
				PC:   rng.Uint64() >> 16,
				Kind: isa.Kind(rng.Intn(5)),
			}
			switch in.Kind {
			case isa.ALU:
				in.Dst = isa.Reg(rng.Intn(64))
				in.SrcA = isa.Reg(rng.Intn(64))
				in.SrcB = isa.Reg(rng.Intn(64))
				in.Lat = uint8(1 + rng.Intn(20))
			case isa.Load, isa.Store:
				in.Addr = rng.Uint64() >> 8
				in.Size = uint8(1 + rng.Intn(16))
				in.SrcA = isa.Reg(rng.Intn(64))
			case isa.Branch:
				in.Class = isa.BranchClass(1 + rng.Intn(6))
				in.Taken = rng.Intn(2) == 0
				in.Addr = rng.Uint64() >> 16
			}
			tr.Insts = append(tr.Insts, in)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || len(got.Insts) != len(tr.Insts) {
			return false
		}
		return reflect.DeepEqual(append([]isa.Inst{}, got.Insts...), append([]isa.Inst{}, tr.Insts...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Decode(bytes.NewReader([]byte{'M', 'D', 'P', 'T', 99})); err == nil {
		t.Error("bad version should fail")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}

func TestMultiStoreAnalysisCrafted(t *testing.T) {
	tr := &Trace{Insts: []isa.Inst{
		{Kind: isa.Store, Addr: 100, Size: 4, SrcA: 5},
		{Kind: isa.Store, Addr: 104, Size: 4, SrcA: 5},
		{Kind: isa.Load, Addr: 100, Size: 8}, // needs both stores
		{Kind: isa.Store, Addr: 200, Size: 8, SrcA: 3},
		{Kind: isa.Load, Addr: 200, Size: 8}, // single provider
		{Kind: isa.Load, Addr: 999, Size: 8}, // no provider
	}}
	ms := tr.AnalyzeMultiStore(16)
	if ms.Loads != 3 {
		t.Errorf("loads = %d, want 3", ms.Loads)
	}
	if ms.MultiDepLoads != 1 {
		t.Errorf("multi-dep loads = %d, want 1", ms.MultiDepLoads)
	}
	if ms.InOrderProvider != 1 {
		t.Errorf("in-order providers = %d, want 1 (shared base register)", ms.InOrderProvider)
	}
	if ms.MultiFrac() == 0 || ms.InOrderFrac() != 1 {
		t.Error("fraction accessors wrong")
	}
}

func TestMultiStoreWindowEviction(t *testing.T) {
	// The window holds 1 store: the older store must be forgotten.
	tr := &Trace{Insts: []isa.Inst{
		{Kind: isa.Store, Addr: 100, Size: 4, SrcA: 5},
		{Kind: isa.Store, Addr: 104, Size: 4, SrcA: 5},
		{Kind: isa.Load, Addr: 100, Size: 8},
	}}
	ms := tr.AnalyzeMultiStore(1)
	if ms.MultiDepLoads != 0 {
		t.Error("window of 1 cannot produce multi-store loads")
	}
}

func TestBwavesHasHighestMultiStoreFraction(t *testing.T) {
	bwaves := testTrace(t, "503.bwaves", 30000).AnalyzeMultiStore(114)
	lbm := testTrace(t, "519.lbm", 30000).AnalyzeMultiStoreWindowDefault()
	if bwaves.MultiFrac() == 0 {
		t.Error("bwaves should have multi-store dependent loads (paper Fig. 4)")
	}
	if lbm.MultiFrac() >= bwaves.MultiFrac() {
		t.Errorf("lbm multi-store fraction %.4f should be below bwaves %.4f",
			lbm.MultiFrac(), bwaves.MultiFrac())
	}
	if bwaves.InOrderFrac() < 0.5 {
		t.Errorf("bwaves multi-store providers should be mostly in order, got %.2f", bwaves.InOrderFrac())
	}
}

func TestSelectIntervals(t *testing.T) {
	tr := testTrace(t, "500.perlbench_1", 40000)
	ivs := tr.SelectIntervals(5000, 3)
	if len(ivs) == 0 || len(ivs) > 3 {
		t.Fatalf("got %d intervals", len(ivs))
	}
	sum := 0.0
	for _, iv := range ivs {
		if iv.End-iv.Start != 5000 {
			t.Errorf("interval [%d,%d) has wrong length", iv.Start, iv.End)
		}
		sum += iv.Weight
		sub := tr.Slice(iv)
		if sub.Len() != 5000 {
			t.Errorf("Slice length = %d", sub.Len())
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %f, want 1", sum)
	}
}

// TestSelectIntervalsDegenerate pins the edge-case contract: every
// geometry yields a well-formed selection (intervals inside the stream,
// weights summing to 1) instead of relying on callers to special-case.
func TestSelectIntervalsDegenerate(t *testing.T) {
	cases := []struct {
		name        string
		len         int // stream length
		intervalLen int
		k           int
		want        int  // expected interval count (-1 = only check bounds)
		wholeStream bool // single interval covering the whole stream
	}{
		{"empty stream", 0, 1000, 4, 0, false},
		{"shorter than one interval", 100, 1000, 4, 1, true},
		{"zero interval length", 100, 0, 4, 1, true},
		{"negative interval length", 100, -5, 4, 1, true},
		{"zero k", 100, 10, 0, 1, false},
		{"negative k", 100, 10, -3, 1, false},
		{"k beyond available intervals", 100, 10, 99, -1, false},
		{"interval length equals stream", 100, 100, 4, 1, true},
		{"one micro-op", 1, 1, 1, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &Trace{Insts: make([]isa.Inst, c.len)}
			ivs := tr.SelectIntervals(c.intervalLen, c.k)
			if c.want >= 0 && len(ivs) != c.want {
				t.Fatalf("got %d intervals %+v, want %d", len(ivs), ivs, c.want)
			}
			sum := 0.0
			for _, iv := range ivs {
				if iv.Start < 0 || iv.End > c.len || iv.Start >= iv.End {
					t.Errorf("malformed interval [%d,%d) for stream of %d", iv.Start, iv.End, c.len)
				}
				sum += iv.Weight
			}
			if len(ivs) > 0 && (sum < 0.999 || sum > 1.001) {
				t.Errorf("weights sum to %f, want 1", sum)
			}
			if c.wholeStream && (len(ivs) != 1 || ivs[0].Start != 0 || ivs[0].End != c.len || ivs[0].Weight != 1) {
				t.Errorf("want one whole-stream interval, got %+v", ivs)
			}
		})
	}
}

// TestSplitN pins the contiguous-split contract parsim builds on: exact
// cover, near-equal lengths, clamped n.
func TestSplitN(t *testing.T) {
	cases := []struct {
		name string
		len  int
		n    int
		want int
	}{
		{"empty stream", 0, 4, 0},
		{"even split", 100, 4, 4},
		{"uneven split", 103, 4, 4},
		{"n of one", 50, 1, 1},
		{"zero n", 50, 0, 1},
		{"negative n", 50, -2, 1},
		{"n beyond length", 3, 10, 3},
		{"interval per micro-op", 5, 5, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &Trace{Insts: make([]isa.Inst, c.len)}
			ivs := tr.SplitN(c.n)
			if len(ivs) != c.want {
				t.Fatalf("got %d intervals, want %d", len(ivs), c.want)
			}
			next, sum := 0, 0.0
			minLen, maxLen := c.len, 0
			for _, iv := range ivs {
				if iv.Start != next {
					t.Fatalf("gap: interval starts at %d, want %d", iv.Start, next)
				}
				if l := iv.End - iv.Start; l > 0 {
					if l < minLen {
						minLen = l
					}
					if l > maxLen {
						maxLen = l
					}
				} else {
					t.Fatalf("empty interval [%d,%d)", iv.Start, iv.End)
				}
				next = iv.End
				sum += iv.Weight
			}
			if c.want > 0 {
				if next != c.len {
					t.Errorf("cover ends at %d, want %d", next, c.len)
				}
				if maxLen-minLen > 1 {
					t.Errorf("lengths vary by more than 1: min %d max %d", minLen, maxLen)
				}
				if sum < 0.999 || sum > 1.001 {
					t.Errorf("weights sum to %f, want 1", sum)
				}
			}
		})
	}
}

// AnalyzeMultiStoreWindowDefault is a tiny helper for the test above.
func (t *Trace) AnalyzeMultiStoreWindowDefault() MultiStore { return t.AnalyzeMultiStore(114) }

// analyzeMultiStoreRef is the original map-per-load implementation, kept as
// the reference the allocation-free version must match byte for byte.
func analyzeMultiStoreRef(t *Trace, window int) MultiStore {
	var res MultiStore
	type storeRec struct {
		idx  int
		addr uint64
		size uint8
		base isa.Reg
	}
	ring := make([]storeRec, 0, window)
	for i := range t.Insts {
		in := &t.Insts[i]
		switch in.Kind {
		case isa.Store:
			if len(ring) == window {
				copy(ring, ring[1:])
				ring = ring[:window-1]
			}
			ring = append(ring, storeRec{idx: i, addr: in.Addr, size: in.Size, base: in.SrcA})
		case isa.Load:
			res.Loads++
			providers := map[int]isa.Reg{}
			for b := in.Addr; b < in.End(); b++ {
				for j := len(ring) - 1; j >= 0; j-- {
					s := ring[j]
					if s.addr <= b && b < s.addr+uint64(s.size) {
						providers[s.idx] = s.base
						break
					}
				}
			}
			if len(providers) >= 2 {
				res.MultiDepLoads++
				var first isa.Reg
				same, got := true, false
				for _, base := range providers {
					if !got {
						first, got = base, true
						continue
					}
					if base != first {
						same = false
					}
				}
				if same && first != 0 {
					res.InOrderProvider++
				}
			}
		}
	}
	return res
}

func TestAnalyzeMultiStoreMatchesReference(t *testing.T) {
	for _, app := range []string{"503.bwaves", "511.povray", "519.lbm"} {
		tr := testTrace(t, app, 20000)
		for _, window := range []int{1, 16, 114} {
			got := tr.AnalyzeMultiStore(window)
			want := analyzeMultiStoreRef(tr, window)
			if got != want {
				t.Errorf("%s window=%d: got %+v, want %+v", app, window, got, want)
			}
		}
	}
}

func TestPrefixesMatchStream(t *testing.T) {
	tr := testTrace(t, "511.povray", 20000)
	p := tr.Pre()
	if p != tr.Pre() {
		t.Fatal("Pre must return the same shared structure")
	}
	divs := 0
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if in.Divergent() {
			if got := p.DivEntries[divs]; got != EntryOf(in) {
				t.Fatalf("divEntries[%d] = %v, want %v", divs, got, EntryOf(in))
			}
			divs++
		}
	}
	if len(p.DivEntries) != divs {
		t.Fatalf("divEntries length %d, want %d", len(p.DivEntries), divs)
	}
}

// TestBranchOutcomesMemo: concurrent first uses of one (predictor, from) key
// build once and share the result, a hit allocates nothing, keys differing
// in either part are distinct, and an unknown predictor is an error.
func TestBranchOutcomesMemo(t *testing.T) {
	tr := testTrace(t, "502.gcc_1", 5000)
	outs := make([]*bpred.Outcomes, 8)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, err := tr.BranchOutcomes("tagescl", 1)
			if err != nil {
				t.Error(err)
			}
			outs[i] = o
		}()
	}
	wg.Wait()
	for _, o := range outs {
		if o == nil || o != outs[0] {
			t.Fatal("concurrent first uses did not share one result")
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { tr.BranchOutcomes("tagescl", 1) }); allocs != 0 {
		t.Errorf("a memo hit allocates %v times", allocs)
	}
	if o, _ := tr.BranchOutcomes("tagescl", 0); o == outs[0] {
		t.Error("a different start index shares the result")
	}
	if o, _ := tr.BranchOutcomes("gshare", 1); o == outs[0] || o.Mispredicts == outs[0].Mispredicts {
		t.Error("a different predictor shares the result")
	}
	if _, err := tr.BranchOutcomes("crystalball", 1); err == nil {
		t.Error("an unknown predictor should error")
	}
}
