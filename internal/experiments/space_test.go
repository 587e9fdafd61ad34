package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestExampleSpecsMirrorAblations keeps each ready-made job spec under
// examples/jobspecs the same sweep as the experiment it mirrors (the jobs
// table of EXPERIMENTS.md): its space expands to exactly the variants that
// experiment runs.
func TestExampleSpecsMirrorAblations(t *testing.T) {
	var phastBudgets Space
	for _, spec := range budgets.Predictors {
		if family, _, _ := strings.Cut(spec, ":"); family == "phast" {
			phastBudgets.Predictors = append(phastBudgets.Predictors, spec)
		}
	}
	for file, sp := range map[string]Space{
		"geometry.json":   phastBudgets, // Fig. 13
		"confidence.json": confMaxes,    // abl-conf
		"history.json":    tableCounts,  // abl-tables
		"trainpoint.json": trainPoints,  // abl-train
	} {
		data, err := os.ReadFile(filepath.Join("../../examples/jobspecs", file))
		if err != nil {
			t.Fatal(err)
		}
		var spec struct {
			Space Space `json:"space"`
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if got, want := spec.Space.Variants(), sp.Variants(); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s expands to\n%v\nwant the experiment's\n%v", file, got, want)
		}
	}
}
