package faultinject

import (
	"math"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	p, err := Parse("panic=0.1,stall=0.05,diskwrite=1,corrupt=0,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Rate(FaultPanic); got != 0.1 {
		t.Errorf("panic rate = %g, want 0.1", got)
	}
	if got := p.Rate(FaultDiskWrite); got != 1 {
		t.Errorf("diskwrite rate = %g, want 1", got)
	}
	if p.seed != 42 {
		t.Errorf("seed = %d, want 42", p.seed)
	}
	if p2, err := Parse(p.String()); err != nil || p2.Rate(FaultStall) != 0.05 {
		t.Errorf("String round trip broken: %v %v", p2, err)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"panic", "panic=x", "warp=0.5", "panic=1.5", "seed=-1"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestParseEmptyIsNilPlan(t *testing.T) {
	p, err := Parse("  ")
	if err != nil || p != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", p, err)
	}
	// The nil plan injects nothing and never crashes.
	if p.Should(FaultPanic, "k") || p.Rate(FaultPanic) != 0 || p.Point(FaultPanic, "k", 10) != 0 {
		t.Error("nil plan must be inert")
	}
}

// TestShouldDeterministicAndCalibrated: the same (plan, fault, key) always
// decides the same way, different seeds decide independently, and the
// empirical firing rate over many keys tracks the configured probability.
func TestShouldDeterministicAndCalibrated(t *testing.T) {
	p, err := NewPlan(1, map[Fault]float64{FaultPanic: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune(i))
		first := p.Should(FaultPanic, key)
		if second := p.Should(FaultPanic, key); second != first {
			t.Fatalf("decision for %q not deterministic", key)
		}
		if first {
			fired++
		}
	}
	got := float64(fired) / n
	if math.Abs(got-0.1) > 0.02 {
		t.Errorf("empirical rate %.3f, want ≈0.10", got)
	}
}

func TestPointInRangeAndDeterministic(t *testing.T) {
	p, _ := NewPlan(7, map[Fault]float64{FaultStall: 1})
	for i := 0; i < 100; i++ {
		key := string(rune(i)) + "key"
		v := p.Point(FaultStall, key, 1000)
		if v >= 1000 {
			t.Fatalf("Point out of range: %d", v)
		}
		if v != p.Point(FaultStall, key, 1000) {
			t.Fatal("Point not deterministic")
		}
	}
}

func TestActivateRestores(t *testing.T) {
	if Active() != nil {
		t.Fatal("test environment has a leftover active plan")
	}
	p, _ := NewPlan(1, map[Fault]float64{FaultPanic: 1})
	restore := Activate(p)
	if Active() != p {
		t.Error("Activate did not install the plan")
	}
	restore()
	if Active() != nil {
		t.Error("restore did not reinstate the previous (nil) plan")
	}
}

// TestPeerLinkFaultsParse: the fleet-chaos faults round-trip through the
// spec syntax like every other fault.
func TestPeerLinkFaultsParse(t *testing.T) {
	p, err := Parse("partition=0.5,peerlatency=1,peerflap=0.25,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate(FaultPeerPartition) != 0.5 || p.Rate(FaultPeerLatency) != 1 || p.Rate(FaultPeerFlap) != 0.25 {
		t.Errorf("rates = %g/%g/%g, want 0.5/1/0.25",
			p.Rate(FaultPeerPartition), p.Rate(FaultPeerLatency), p.Rate(FaultPeerFlap))
	}
	if p2, err := Parse(p.String()); err != nil || p2.Rate(FaultPeerFlap) != 0.25 {
		t.Errorf("String round trip broken: %v %v", p2, err)
	}
}

// TestFlapSevered: within one FlapPeriod window the link is severed for
// the configured fraction of instants, deterministically for a fixed plan
// and member, and the nil plan never severs.
func TestFlapSevered(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.FlapSevered("http://a:1", time.Now()) {
		t.Fatal("nil plan severed a link")
	}
	p, err := NewPlan(3, map[Fault]float64{FaultPeerFlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Sample one full period at fine resolution: the severed fraction must
	// track the rate, with one contiguous severed window (plus wraparound).
	const samples = 1000
	base := time.Unix(100, 0)
	severed := 0
	for i := 0; i < samples; i++ {
		at := base.Add(time.Duration(i) * FlapPeriod / samples)
		if p.FlapSevered("http://a:1", at) {
			severed++
		}
		// Determinism: same instant, same answer.
		if p.FlapSevered("http://a:1", at) != p.FlapSevered("http://a:1", at) {
			t.Fatal("FlapSevered not deterministic")
		}
	}
	frac := float64(severed) / samples
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("severed fraction = %g, want 0.5", frac)
	}
	// Zero-rate member never flaps even when asked directly.
	p0, _ := NewPlan(3, map[Fault]float64{FaultPeerFlap: 0})
	if p0.FlapSevered("http://a:1", base) {
		t.Error("zero-rate plan severed a link")
	}
}
