package experiments

import (
	"io"
	"testing"

	"repro/internal/stats"
)

// TestCalibrationOrdering runs the Fig. 15 core on a subset chosen to
// exercise each predictor's characteristic weakness and asserts the paper's
// ordering: PHAST clearly above Store Sets, at or near NoSQ and the
// MDP-TAGE family. (The full-suite numbers live in results/ and
// EXPERIMENTS.md; this is the fast regression guard.)
func TestCalibrationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check is not for -short")
	}
	apps := []string{"502.gcc_5", "526.blender", "511.povray", "541.leela",
		"500.perlbench_3", "557.xz_2", "510.parest"}
	r := NewRunner(Options{Apps: apps, Instructions: 120000, Out: io.Discard})
	preds := []string{"storesets", "nosq", "mdptage", "phast"}
	ideal, grid, err := r.vsIdeal(predVariants("alderlake", preds...))
	if err != nil {
		t.Fatal(err)
	}
	geo := map[string]float64{}
	for p, pred := range preds {
		runs := grid[p]
		ratios := make([]float64, len(runs))
		for i := range runs {
			ratios[i] = runs[i].Speedup(ideal[i])
		}
		geo[pred] = stats.GeoMean(ratios)
	}
	t.Logf("IPC vs ideal: phast=%.4f mdptage=%.4f nosq=%.4f storesets=%.4f",
		geo["phast"], geo["mdptage"], geo["nosq"], geo["storesets"])
	if geo["phast"] <= geo["storesets"] {
		t.Errorf("PHAST (%.4f) must beat Store Sets (%.4f) on the pathology subset",
			geo["phast"], geo["storesets"])
	}
	if geo["phast"] < geo["nosq"]-0.02 {
		t.Errorf("PHAST (%.4f) too far below NoSQ (%.4f)", geo["phast"], geo["nosq"])
	}
	if geo["phast"] < 0.93 {
		t.Errorf("PHAST at %.3f of ideal on the hard subset", geo["phast"])
	}
}
