package cache

import (
	"testing"

	"repro/internal/config"
)

func smallCache() config.Cache {
	return config.Cache{SizeKB: 1, Ways: 2, LineBytes: 64, HitLatency: 3, MSHRs: 2}
}

// fill installs addr's line as a missing access does, into the victim way
// the access found, and returns the evicted line (+1 encoded, 0 if none). A
// line already present is only touched.
func fill(l *Level, addr uint64) uint64 {
	if way, hit := l.access(addr); !hit {
		return l.install(addr, way)
	}
	return 0
}

func hits(l *Level, addr uint64) bool {
	_, hit := l.access(addr)
	return hit
}

func TestLevelHitAfterFill(t *testing.T) {
	l := NewLevel("T", smallCache())
	if hits(l, 0x1000) {
		t.Error("cold access should miss")
	}
	fill(l, 0x1000)
	if !hits(l, 0x1000) || !hits(l, 0x1030) {
		t.Error("same line should hit after fill")
	}
	if hits(l, 0x1040) {
		t.Error("next line should miss")
	}
}

func TestLevelLRUEviction(t *testing.T) {
	l := NewLevel("T", smallCache()) // 8 sets × 2 ways
	sets := uint64(l.sets)
	a := uint64(0x0000) // set 0
	b := a + sets*64    // set 0, different tag
	c := a + 2*sets*64  // set 0, third tag
	fill(l, a)
	fill(l, b)
	l.access(a) // make a MRU
	fill(l, c)  // must evict b (LRU)
	if !l.Lookup(a) {
		t.Error("recently used line evicted")
	}
	if l.Lookup(b) {
		t.Error("LRU line should have been evicted")
	}
	if !l.Lookup(c) {
		t.Error("filled line missing")
	}
}

func TestMSHRContentionDelays(t *testing.T) {
	l := NewLevel("T", smallCache())
	l.mshrs = make([]uint64, 2)
	// Two misses fill both MSHRs until cycle 50.
	if s := l.reserveMSHR(10, 50); s != 10 {
		t.Errorf("first reservation start = %d, want 10", s)
	}
	if s := l.reserveMSHR(10, 50); s != 10 {
		t.Errorf("second reservation start = %d, want 10", s)
	}
	// Third miss must wait for the earliest MSHR to free.
	if s := l.reserveMSHR(12, 52); s != 50 {
		t.Errorf("contended reservation start = %d, want 50", s)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	m := config.AlderLake()
	m.PrefetchDegree = 0 // keep latencies exact
	h := New(m)
	addr := uint64(0x1234000)

	// Cold: full miss to memory.
	done := h.Load(0, 0x400, addr)
	wantCold := uint64(m.L1D.HitLatency + m.L2.HitLatency + m.L3.HitLatency + m.MemLatency)
	if done != wantCold {
		t.Errorf("cold load done at %d, want %d", done, wantCold)
	}
	// Warm: L1D hit.
	done = h.Load(1000, 0x400, addr)
	if done != 1000+uint64(m.L1D.HitLatency) {
		t.Errorf("warm load done at %d, want %d", done, 1000+uint64(m.L1D.HitLatency))
	}
	if h.L1D.Hits != 1 || h.L1D.Misses != 1 {
		t.Errorf("L1D hits/misses = %d/%d", h.L1D.Hits, h.L1D.Misses)
	}
}

func TestHierarchySecondaryMissCoalesces(t *testing.T) {
	m := config.AlderLake()
	m.PrefetchDegree = 0
	h := New(m)
	addr := uint64(0x5678000)
	first := h.Load(0, 0x400, addr)
	second := h.Load(1, 0x404, addr+8) // same line, while fill in flight
	if second > first {
		t.Errorf("secondary miss (%d) should ride the outstanding fill (%d)", second, first)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	m := config.AlderLake()
	m.PrefetchDegree = 0
	h := New(m)
	addr := uint64(0x9abc000)
	h.Load(0, 0x400, addr) // install everywhere
	// Evict from L1D by filling its set (lines that alias modulo #sets).
	setStride := uint64(h.L1D.sets) * 64
	for i := uint64(1); i <= uint64(m.L1D.Ways); i++ {
		fill(h.L1D, addr+i*setStride)
	}
	done := h.Load(10000, 0x400, addr)
	lat := done - 10000
	wantMax := uint64(m.L1D.HitLatency + m.L2.HitLatency)
	if lat > wantMax {
		t.Errorf("post-eviction load latency %d, want ≤ %d (L2 hit)", lat, wantMax)
	}
	if lat <= uint64(m.L1D.HitLatency) {
		t.Errorf("post-eviction load latency %d should exceed an L1D hit", lat)
	}
}

func TestFetchPath(t *testing.T) {
	m := config.AlderLake()
	h := New(m)
	pc := uint64(0x40_0000)
	cold := h.Fetch(0, pc)
	if cold <= uint64(m.L1I.HitLatency) {
		t.Error("cold fetch should miss")
	}
	warm := h.Fetch(100, pc)
	if warm != 100+uint64(m.L1I.HitLatency) {
		t.Errorf("warm fetch done at %d", warm)
	}
	// The cold fetch's next-line prefetch installed the following line.
	if !h.L1I.Lookup(pc + 64) {
		t.Error("next line not prefetched into L1I")
	}
	if len(h.L1I.mshrs)+len(h.L2.mshrs)+len(h.L3.mshrs) != 0 {
		t.Error("only the L1D reserves MSHRs, so only it should hold MSHR state")
	}
}

func TestStoreDrainInstallsLine(t *testing.T) {
	m := config.AlderLake()
	m.PrefetchDegree = 0
	h := New(m)
	addr := uint64(0xdef0000)
	h.StoreDrain(0, addr)
	done := h.Load(1000, 0x400, addr)
	if done != 1000+uint64(m.L1D.HitLatency) {
		t.Errorf("load after store drain should hit L1D, done at %d", done)
	}
}

func TestStridePrefetcher(t *testing.T) {
	p := NewStridePrefetcher(16, 2, 64)
	pc := uint64(0x400)
	var got []uint64
	for i := 0; i < 6; i++ {
		got = p.Observe(pc, uint64(0x1000+i*64))
	}
	if len(got) != 2 {
		t.Fatalf("confirmed stride should prefetch degree=2 lines, got %d", len(got))
	}
	if got[0] != 0x1000+6*64 || got[1] != 0x1000+7*64 {
		t.Errorf("prefetch addresses = %#x", got)
	}
	// Break the stride: confidence must reset.
	if out := p.Observe(pc, 0x90000); out != nil {
		t.Error("broken stride should not prefetch")
	}
	if out := p.Observe(pc, 0x90000+64); out != nil {
		t.Error("one confirmation is not enough to re-arm")
	}
}

func TestStridePrefetcherCapacity(t *testing.T) {
	p := NewStridePrefetcher(2, 1, 64)
	p.Observe(1, 100)
	p.Observe(2, 200)
	p.Observe(3, 300) // evicts one entry
	if len(p.entries) > 2 {
		t.Errorf("prefetcher exceeded capacity: %d entries", len(p.entries))
	}
}
