package sim

import (
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestNewPredictorSpecs: every family builds at its default and at each
// of its Fig. 13 budgets, and the predictor carries the family's name (the
// phast-* ablations build PHAST itself).
func TestNewPredictorSpecs(t *testing.T) {
	for _, f := range Families() {
		wantName := f.Name
		if strings.HasPrefix(f.Name, "phast-") {
			wantName = "phast"
		}
		for _, spec := range append([]string{f.Name}, f.BudgetSpecs()...) {
			p, err := NewPredictor(spec)
			if err != nil {
				t.Fatalf("NewPredictor(%q): %v", spec, err)
			}
			if p.Name() != wantName {
				t.Errorf("NewPredictor(%q).Name() = %q, want %q", spec, p.Name(), wantName)
			}
		}
	}
	for _, bad := range []string{"", "oracle9000", "phast:abc"} {
		if _, err := NewPredictor(bad); err == nil {
			t.Errorf("NewPredictor(%q) should fail", bad)
		}
	}
}

func TestPredictorBudgetSpecsChangeSize(t *testing.T) {
	small, _ := NewPredictor("phast:32")
	big, _ := NewPredictor("phast:512")
	if small.SizeBits() >= big.SizeBits() {
		t.Error("budget spec should scale storage")
	}
}

func TestRunDefaults(t *testing.T) {
	run, err := Run(Config{App: "519.lbm", Instructions: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if run.Machine != "alderlake" || run.Predictor != "phast" {
		t.Errorf("defaults: machine=%q predictor=%q", run.Machine, run.Predictor)
	}
	if run.Committed != 20000 {
		t.Errorf("committed %d", run.Committed)
	}
}

func TestRunUnknownApp(t *testing.T) {
	if _, err := Run(Config{App: "666.nonexistent"}); err == nil ||
		!strings.Contains(err.Error(), "unknown program") {
		t.Errorf("unknown app error = %v", err)
	}
	if _, err := Run(Config{App: "519.lbm", Machine: "vax"}); err == nil {
		t.Error("unknown machine should fail")
	}
	if _, err := Run(Config{App: "519.lbm", Predictor: "psychic"}); err == nil {
		t.Error("unknown predictor should fail")
	}
}

func TestTraceCacheReuse(t *testing.T) {
	a, err := TraceFor("519.lbm", 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceFor("519.lbm", 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical requests should hit the trace cache")
	}
	c, err := TraceFor("519.lbm", 6000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different lengths must not share a cache entry")
	}
}

func TestRunCoreExposesPredictor(t *testing.T) {
	_, c, err := RunCore(Config{App: "519.lbm", Predictor: "unlimited-phast", Instructions: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if c.Predictor().Name() != "unlimited-phast" {
		t.Error("RunCore must expose the bound predictor")
	}
}

// TestRunCoreRejectsIntervals: RunCore returns one core, so an
// interval-split run fails as a typed config error instead of silently
// simulating sequentially.
func TestRunCoreRejectsIntervals(t *testing.T) {
	_, c, err := RunCore(Config{App: "511.povray", Predictor: "none", Instructions: 5000, Intervals: 2})
	if KindOf(err) != ErrConfig || c != nil {
		t.Fatalf("RunCore with Intervals 2: err %v, core returned %v; want a config error and no core", err, c != nil)
	}
}

// dropLast is a checker that never sees the retirement of micro-op last.
type dropLast struct {
	verifier
	last int
}

func (d dropLast) Check(ev *pipeline.CommitEvent) error {
	if ev.TraceIdx == d.last {
		return nil
	}
	return d.verifier.Check(ev)
}

// TestVerifiedRunsCheckCompleteness: a verified run whose oracle did not
// see every micro-op retire fails as ErrVerify, through RunCore as through
// Run.
func TestVerifiedRunsCheckCompleteness(t *testing.T) {
	defer func(f func(*trace.Trace) verifier) { newChecker = f }(newChecker)
	newChecker = func(tr *trace.Trace) verifier { return dropLast{oracle.NewChecker(tr), tr.Len() - 1} }
	cfg := Config{App: "511.povray", Predictor: "none", Instructions: 5000, Verify: true}
	if _, err := Run(cfg); KindOf(err) != ErrVerify {
		t.Errorf("Run: err %v, want a verify error", err)
	}
	if _, _, err := RunCore(cfg); KindOf(err) != ErrVerify {
		t.Errorf("RunCore: err %v, want a verify error", err)
	}
}

func TestFilterConfigs(t *testing.T) {
	base := Config{App: "511.povray", Predictor: "none", Instructions: 30000}
	fwd, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	svwCfg := base
	svwCfg.SVWFilter = true
	svw, err := Run(svwCfg)
	if err != nil {
		t.Fatal(err)
	}
	offCfg := base
	offCfg.FwdFilterOff = true
	off, err := Run(offCfg)
	if err != nil {
		t.Fatal(err)
	}
	if svw.Committed != fwd.Committed || off.Committed != fwd.Committed {
		t.Error("all filter modes must commit the full stream")
	}
	if off.MemOrderViolations < fwd.MemOrderViolations {
		t.Error("no filtering should not reduce violations")
	}
	if svw.MemOrderViolations == 0 && fwd.MemOrderViolations > 0 {
		t.Error("SVW should still catch violations")
	}
}

func TestTrainAtDetectConfig(t *testing.T) {
	run, err := Run(Config{App: "511.povray", Predictor: "phast", Instructions: 30000, TrainAtDetect: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Committed != 30000 {
		t.Errorf("committed %d", run.Committed)
	}
}

func TestPHASTVariantSpecs(t *testing.T) {
	for _, spec := range []string{"phast-conf:7", "phast-tables:4", "perceptron-mdp"} {
		if _, err := NewPredictor(spec); err != nil {
			t.Errorf("NewPredictor(%q): %v", spec, err)
		}
	}
	for _, bad := range []string{"phast-conf:0", "phast-conf:999", "phast-tables:0", "phast-tables:99"} {
		if _, err := NewPredictor(bad); err == nil {
			t.Errorf("NewPredictor(%q) should fail", bad)
		}
	}
}
