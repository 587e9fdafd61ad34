package energy_test

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/sim"
)

// perAccess is the modelled per-access energy of one of sim's predictor
// specs.
func perAccess(t *testing.T, spec string) float64 {
	t.Helper()
	structs, err := sim.Structures(spec)
	if err != nil {
		t.Fatal(err)
	}
	return energy.PerAccessPJ(structs)
}

// TestAnchorsNearTableII: the calibrated model must land near every
// Table II per-access value it was fitted to (single-scale least squares,
// so individual points deviate, but each must stay within 2.5×).
func TestAnchorsNearTableII(t *testing.T) {
	cases := []struct {
		spec string
		want float64
	}{
		{"storesets", 0.2403 + 0.1026}, // SSIT + LFST per full access
		{"nosq", 0.3721},
		{"mdptage", 1.3103},
		{"mdptage-s", 0.4421},
		{"phast", 0.4856},
	}
	for _, c := range cases {
		got := perAccess(t, c.spec)
		ratio := got / c.want
		if ratio < 0.6 || ratio > 1.6 {
			t.Errorf("%s: per-access %.4f pJ, Table II %.4f (ratio %.2f)", c.spec, got, c.want, ratio)
		}
	}
}

func TestEnergyOrderingMatchesPaper(t *testing.T) {
	// Fig. 16's main observation: the 12-component TAGE-like structure
	// costs far more per access than the others.
	tage := perAccess(t, "mdptage")
	for _, spec := range sim.PredictorNames() {
		if got := perAccess(t, spec); spec != "mdptage" && got >= tage {
			t.Errorf("%s (%.3f pJ) should cost less per access than mdptage (%.3f pJ)",
				spec, got, tage)
		}
	}
}

// TestEnergyMonotonicInSize: along every Fig. 13 storage sweep, larger
// tables cost more per access.
func TestEnergyMonotonicInSize(t *testing.T) {
	for _, f := range sim.Families() {
		specs := f.BudgetSpecs()
		for i := 1; i < len(specs); i++ {
			if small, big := perAccess(t, specs[i-1]), perAccess(t, specs[i]); small >= big {
				t.Errorf("%s (%.4f pJ) should cost less per access than %s (%.4f pJ)",
					specs[i-1], small, specs[i], big)
			}
		}
	}
}

// TestStructuresForUnknown: storage-free predictors have no structures,
// ParallelFor clamps them to one probe, and PHAST probes its 8 tables.
func TestStructuresForUnknown(t *testing.T) {
	s, err := sim.Structures("ideal")
	if err != nil || s != nil {
		t.Errorf("ideal structures = %+v, %v; storage-free predictors have none", s, err)
	}
	if energy.ParallelFor(s) != 1 {
		t.Error("ParallelFor must clamp to 1")
	}
	s, err = sim.Structures("phast")
	if err != nil || energy.ParallelFor(s) != 8 {
		t.Errorf("PHAST probes 8 tables, got %d (%v)", energy.ParallelFor(s), err)
	}
}

// TestStructuresBudgetArg: a spec's argument sizes its structures, and a
// malformed argument is rejected as NewPredictor rejects it.
func TestStructuresBudgetArg(t *testing.T) {
	s, err := sim.Structures("phast:256")
	if err != nil || len(s) != 1 || s[0].Entries != 256*4 {
		t.Errorf("phast:256 structures = %+v, %v", s, err)
	}
	s, err = sim.Structures("storesets:4096")
	if err != nil || len(s) != 2 || s[0].Entries != 4096 || s[1].Entries != 2048 {
		t.Errorf("storesets:4096 structures = %+v, %v", s, err)
	}
	if _, err := sim.Structures("phast:bogus"); err == nil {
		t.Error("Structures must reject what NewPredictor rejects")
	}
}
