package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// tinyRunner keeps experiment smoke tests fast: two contrasting apps at a
// small instruction count.
func tinyRunner(buf *bytes.Buffer) *Runner {
	return NewRunner(Options{
		Apps:         []string{"511.povray", "519.lbm"},
		Instructions: 30000,
		Out:          buf,
	})
}

// runOne runs cfg under the runner's base context.
func runOne(r *Runner, cfg sim.Config) (*stats.Run, error) {
	return r.RunConfigContext(r.Opt().Context, cfg)
}

func TestByName(t *testing.T) {
	if len(All()) < 17 {
		t.Fatalf("only %d experiments registered", len(All()))
	}
	for _, e := range All() {
		got, err := ByName(e.Name)
		if err != nil || got.Name != e.Name {
			t.Errorf("ByName(%q): %v", e.Name, err)
		}
	}
	if _, err := ByName("fig99"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunnerMemoises(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	a, err := runOne(r, sim.Config{App: "519.lbm", Predictor: "ideal"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(r, sim.Config{App: "519.lbm", Predictor: "ideal"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs should be memoised (same pointer)")
	}
}

func TestRunAppsOrder(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	grid, err := r.RunGrid(Space{Predictors: []string{"ideal", "none"}}.Variants())
	if err != nil {
		t.Fatal(err)
	}
	for _, runs := range grid {
		if len(runs) != 2 || runs[0].App != "511.povray" || runs[1].App != "519.lbm" {
			t.Errorf("RunGrid app order broken: %v, %v", runs[0].App, runs[1].App)
		}
	}
	if grid[0][0].Predictor != "ideal" || grid[1][0].Predictor != "none" {
		t.Errorf("RunGrid variant order broken: %v, %v", grid[0][0].Predictor, grid[1][0].Predictor)
	}
}

// TestExperimentsSmoke runs a representative subset of experiments end to
// end and checks each renders non-empty output mentioning its subject.
func TestExperimentsSmoke(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"fig4", "multiple stores"},
		{"fig7", "UnlimitedPHAST"},
		{"fig10", "history length"},
		{"fig12", "FWD"},
		{"fig14", "MPKI"},
		{"fig15", "IPC"},
		{"fig16", "energy"},
		{"table1", "configuration"},
		{"table2", "predictor"},
		{"mix", "mix"},
	}
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e, err := ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			before := buf.Len()
			if err := e.Run(r); err != nil {
				t.Fatal(err)
			}
			out := buf.String()[before:]
			if !strings.Contains(strings.ToLower(out), strings.ToLower(c.want)) {
				t.Errorf("%s output missing %q:\n%s", c.name, c.want, out)
			}
		})
	}
}

func TestFig15GeomeanPresent(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	if err := Fig15(r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("Fig. 15 must report the geometric mean")
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("Fig. 15 must report PHAST speedups over baselines")
	}
}

func TestAblationsSmoke(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(Options{
		Apps:         []string{"511.povray"},
		Instructions: 20000,
		Out:          &buf,
	})
	for _, name := range []string{"abl-conf", "abl-tables", "abl-train", "abl-filter"} {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"confidence", "history length set", "update point", "filtering"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}
