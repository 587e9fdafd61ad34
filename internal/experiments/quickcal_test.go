package experiments

import (
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestCalibrationOrdering checks the paper's conclusions at test size: one
// runner, one batch over a subset of apps chosen to exercise each
// predictor's characteristic weakness, then a table of claims over the
// geometric-mean IPC versus ideal of the grids the figures run (Fig. 15's
// headline predictors, abl-tables and abl-filter). The full-suite numbers
// live in results/ and EXPERIMENTS.md; a verdict that EXPERIMENTS.md calls
// partial asserts only the part that holds here.
func TestCalibrationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check is not for -short")
	}
	apps := []string{"502.gcc_5", "526.blender", "511.povray", "541.leela",
		"500.perlbench_3", "557.xz_2", "510.parest"}
	r := NewRunner(Options{Apps: apps, Instructions: 120000, Out: io.Discard})
	filters := filterModes(headline)
	variants := append(append([]sim.Config(nil), filters...), tableCounts.Variants()...)
	ideal, grid, err := r.vsIdeal(variants)
	if err != nil {
		t.Fatal(err)
	}
	geo := map[sim.Config]float64{}
	for i, v := range variants {
		geo[v] = GeoIPCvsIdeal(grid[i], ideal)
	}
	pred := func(spec string) float64 { return geo[sim.Config{Predictor: spec}] }
	t.Logf("IPC vs ideal: phast=%.4f mdptage=%.4f nosq=%.4f storesets=%.4f",
		pred("phast"), pred("mdptage"), pred("nosq"), pred("storesets"))
	for _, v := range tableCounts.Variants() {
		t.Logf("%s: %.6f", v.Predictor, geo[v])
	}
	for i := 0; i < len(filters); i += 3 {
		t.Logf("%s: none %.4f svw %.4f fwd %.4f", filters[i].Predictor,
			geo[filters[i]], geo[filters[i+1]], geo[filters[i+2]])
	}

	claims := []struct {
		name  string
		check func() error
	}{
		{"fig15: PHAST beats Store Sets", func() error {
			return atLeast("phast", pred("phast"), "storesets", pred("storesets"), 1e-9)
		}},
		{"fig15: PHAST within 0.02 of NoSQ", func() error {
			return atLeast("phast", pred("phast"), "nosq", pred("nosq"), -0.02)
		}},
		{"fig15: PHAST at 0.93 of ideal or above", func() error {
			return atLeast("phast", pred("phast"), "the floor", 0.93, 0)
		}},
		{"abl-tables: adding tables never lowers IPC, 1 to 8, beyond tableTol", func() error {
			vs := tableCounts.Variants()
			for i := 1; i < len(vs); i++ {
				if err := atLeast(vs[i].Predictor, geo[vs[i]], vs[i-1].Predictor, geo[vs[i-1]], -tableTol); err != nil {
					return err
				}
			}
			return nil
		}},
		{"abl-filter: SVW lands on FWD for every predictor", func() error {
			for i := 0; i < len(filters); i += 3 {
				svw, fwd := geo[filters[i+1]], geo[filters[i+2]]
				if math.Abs(svw-fwd) > svwTol {
					return fmt.Errorf("%s: svw %.4f is more than %.3f from fwd %.4f",
						filters[i].Predictor, svw, svwTol, fwd)
				}
			}
			return nil
		}},
		{"abl-filter: PHAST with no filter is below FWD", func() error {
			none := sim.Config{Predictor: "phast", FwdFilterOff: true}
			return atLeast("phast fwd", pred("phast"), "phast none", geo[none], 1e-9)
		}},
	}
	for _, c := range claims {
		if err := c.check(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// Tolerances of the calibration claims, in IPC versus ideal.
const (
	// tableTol is how far one more PHAST table may lower it. At test size
	// the seventh and eighth tables (lengths 16 and 32) lose 0.00001.
	tableTol = 0.0001
	// svwTol is how far SVW may land from the forwarding filter.
	svwTol = 0.001
)

// atLeast reports an error unless a >= b + margin.
func atLeast(aName string, a float64, bName string, b, margin float64) error {
	if a >= b+margin {
		return nil
	}
	return fmt.Errorf("%s (%.4f) below %s (%.4f) %+g", aName, a, bName, b, margin)
}
