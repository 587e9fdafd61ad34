package energy

import (
	"math"
	"testing"
)

func TestOfRun(t *testing.T) {
	e := OfRun(1.0, 4, 1000, 100)
	if math.Abs(e.ReadsNJ-1.0) > 1e-9 {
		t.Errorf("reads = %.4f nJ, want 1.0", e.ReadsNJ)
	}
	wantWrites := 100 * (1.0 / 4 * writeFactor) / 1000
	if math.Abs(e.WritesNJ-wantWrites) > 1e-9 {
		t.Errorf("writes = %.6f nJ, want %.6f", e.WritesNJ, wantWrites)
	}
	if e.TotalNJ() != e.ReadsNJ+e.WritesNJ {
		t.Error("total must be reads+writes")
	}
	// Degenerate parallel values must not divide by zero.
	if OfRun(1, 0, 1, 1).TotalNJ() <= 0 {
		t.Error("parallel=0 should clamp to 1")
	}
}

func TestTotalBits(t *testing.T) {
	s := Structure{Entries: 100, EntryBits: 10, Parallel: 3}
	if s.TotalBits() != 3000 {
		t.Errorf("TotalBits = %d", s.TotalBits())
	}
	s.Parallel = 0
	if s.TotalBits() != 1000 {
		t.Errorf("TotalBits with Parallel=0 = %d", s.TotalBits())
	}
}
