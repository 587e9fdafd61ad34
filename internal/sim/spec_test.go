package sim

import (
	"strconv"
	"strings"
	"testing"
)

// TestNewPredictorErrorPaths is the table-driven contract of spec parsing:
// unknown names, malformed or out-of-range arguments, and arguments to
// families that take none are ErrConfig errors (never panics), and every
// error names the offending spec so flag typos surface usefully.
func TestNewPredictorErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string // substring the error must carry (typo diagnosability)
	}{
		{"empty spec", "", ""},
		{"unknown name", "oracle9000", "oracle9000"},
		{"unknown name with arg", "oracle9000:64", "oracle9000"},
		{"phast non-numeric arg", "phast:abc", "phast:abc"},
		{"phast float arg", "phast:3.5", "phast:3.5"},
		{"storesets non-numeric arg", "storesets:many", "storesets:many"},
		{"nosq non-numeric arg", "nosq:big", "nosq:big"},
		{"unlimited-phast non-numeric arg", "unlimited-phast:x", "unlimited-phast:x"},
		{"unlimited-nosq non-numeric arg", "unlimited-nosq:x", "unlimited-nosq:x"},
		{"phast-conf non-numeric arg", "phast-conf:x", "phast-conf:x"},
		{"phast-conf below range", "phast-conf:0", "out of range"},
		{"phast-conf above range", "phast-conf:256", "out of range"},
		{"phast-tables below range", "phast-tables:0", "out of range"},
		{"phast-tables above range", "phast-tables:99", "out of range"},
		{"storesets not a power of two", "storesets:3", "storesets:3"},
		{"storesets zero", "storesets:0", "storesets:0"},
		{"phast zero sets", "phast:0", "phast:0"},
		{"phast sets not a power of two", "phast:17", "phast:17"},
		{"phast sets above cap", "phast:131072", "phast:131072"},
		{"nosq zero entries", "nosq:0", "nosq:0"},
		{"mdptage takes no arg", "mdptage:5", "mdptage:5"},
		{"ideal takes no arg", "ideal:7", "ideal:7"},
		{"unlimited-nosq negative history", "unlimited-nosq:-1", "out of range"},
		{"unlimited-nosq history above register", "unlimited-nosq:3000", "out of range"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, err := NewPredictor(c.spec)
			if err == nil {
				t.Fatalf("NewPredictor(%q) = %v, want error", c.spec, p.Name())
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q should mention %q", err, c.want)
			}
			if !strings.Contains(err.Error(), strconv.Quote(c.spec)) {
				t.Errorf("error %q should name the spec %q", err, c.spec)
			}
			if KindOf(err) != ErrConfig {
				t.Errorf("KindOf(%v) = %q, want %q", err, KindOf(err), ErrConfig)
			}
		})
	}
}

// TestNewPredictorEmptyArgDefaults checks the "name:" spelling (colon, no
// argument) falls back to the same configuration as the bare name for every
// family that takes a budget argument.
func TestNewPredictorEmptyArgDefaults(t *testing.T) {
	for _, name := range []string{"phast", "storesets", "nosq", "unlimited-phast", "unlimited-nosq", "phast-conf", "phast-tables"} {
		name := name
		t.Run(name, func(t *testing.T) {
			bare, err := NewPredictor(name)
			if err != nil {
				t.Fatalf("NewPredictor(%q): %v", name, err)
			}
			colon, err := NewPredictor(name + ":")
			if err != nil {
				t.Fatalf("NewPredictor(%q:): %v", name, err)
			}
			if bare.Name() != colon.Name() {
				t.Errorf("names differ: %q vs %q", bare.Name(), colon.Name())
			}
			if bare.SizeBits() != colon.SizeBits() {
				t.Errorf("empty arg should fall back to the default budget: %d vs %d bits",
					bare.SizeBits(), colon.SizeBits())
			}
		})
	}
}

// TestConfigNormalized pins the defaulting rules the run cache's content
// address relies on (see runcache.Key).
func TestConfigNormalized(t *testing.T) {
	got := (Config{App: "519.lbm"}).Normalized()
	want := Config{
		App: "519.lbm", Machine: "alderlake", Predictor: "phast",
		Instructions: DefaultInstructions, BranchPredictor: "tagescl",
	}
	if got != want {
		t.Errorf("Normalized() = %+v, want %+v", got, want)
	}
	// Explicit fields survive.
	explicit := Config{
		App: "519.lbm", Machine: "nehalem", Predictor: "nosq",
		Instructions: 42, Seed: 7, BranchPredictor: "gshare",
	}
	if explicit.Normalized() != explicit {
		t.Errorf("Normalized() must not clobber explicit fields: %+v", explicit.Normalized())
	}
	// SVW overrides the forwarding-filter switch (pipelineOptions order).
	svw := Config{App: "x", SVWFilter: true, FwdFilterOff: true}.Normalized()
	if svw.FwdFilterOff {
		t.Error("SVWFilter must fold FwdFilterOff away")
	}
}
