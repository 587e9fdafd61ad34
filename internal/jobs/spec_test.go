package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestCandidatesOrder pins the canonical expansion order the whole search
// keys on: predictor-major, each predictor crossed with every
// train_at_detect value in listed order, duplicates keeping their first
// position; and that a trial config is the candidate with the spec's
// machine, the app and the rung's stream length filled in.
func TestCandidatesOrder(t *testing.T) {
	s := Spec{Machine: "skylake", Space: experiments.Space{
		Predictors:    []string{"storesets", "phast:64", "phast:256", "phast:64", "phast-conf:15"},
		TrainAtDetect: []bool{true, false},
	}}
	want := []sim.Config{
		{Predictor: "storesets", TrainAtDetect: true}, {Predictor: "storesets"},
		{Predictor: "phast:64", TrainAtDetect: true}, {Predictor: "phast:64"},
		{Predictor: "phast:256", TrainAtDetect: true}, {Predictor: "phast:256"},
		// The second "phast:64" is a duplicate of the first.
		{Predictor: "phast-conf:15", TrainAtDetect: true}, {Predictor: "phast-conf:15"},
	}
	cands := s.Space.Variants()
	if !reflect.DeepEqual(cands, want) {
		t.Fatalf("Space.Variants() =\n%v\nwant\n%v", cands, want)
	}
	got := s.Config(cands[2], "511.povray", 4000)
	if got != (sim.Config{App: "511.povray", Machine: "skylake", Predictor: "phast:64", Instructions: 4000, TrainAtDetect: true}) {
		t.Fatalf("Config = %+v", got)
	}
}

// TestDigestSpec pins idempotency-by-digest: same tenant + same normalized
// spec hash identically; tenant, knobs and search seed all split the digest.
func TestDigestSpec(t *testing.T) {
	apps := []string{"511.povray"}
	base := Spec{Space: experiments.Space{Predictors: []string{"phast-tables:1", "phast-tables:2"}}, Strategy: "halving"}
	norm := base.Normalized(apps, 10_000)
	if a, b := DigestSpec("acme", norm), DigestSpec("acme", norm); a != b {
		t.Fatalf("digest not stable: %s vs %s", a, b)
	}
	if DigestSpec("acme", norm) == DigestSpec("zeta", norm) {
		t.Fatalf("different tenants share a digest")
	}
	mut := base
	mut.Seed = 42
	if DigestSpec("acme", mut.Normalized(apps, 10_000)) == DigestSpec("acme", norm) {
		t.Fatalf("different seeds share a digest")
	}
	// A spec that spells out the defaults digests like one that omits them.
	spelled := base
	spelled.Machine = "alderlake"
	spelled.Instructions = 10_000
	spelled.Apps = apps
	if DigestSpec("acme", spelled.Normalized(apps, 10_000)) != DigestSpec("acme", norm) {
		t.Fatalf("spelled-out defaults digest differently from omitted ones")
	}
}

// TestDigestSpecPinned pins the job ID of examples/jobspecs/trainpoint.json
// under a fixed tenant and suite: a job ID names its checkpoint on disk, so
// a change to how specs encode must not move the ID of an existing spec.
func TestDigestSpecPinned(t *testing.T) {
	data, err := os.ReadFile("../../examples/jobspecs/trainpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpecJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	const want = "dd95750a682f3f514aa4eb4eb325aec3a96caa07acf179998f8a0377c51698c1"
	if got := DigestSpec("acme", spec.Normalized([]string{"511.povray", "519.lbm"}, 20_000)); got != want {
		t.Fatalf("DigestSpec = %s, want %s", got, want)
	}
}

// TestNormalizedDefaults pins the defaulting rules, in particular that grid
// zeroes the halving knobs (they must not split digests of identical grids).
func TestNormalizedDefaults(t *testing.T) {
	apps := []string{"511.povray", "541.leela"}
	n := Spec{Space: experiments.Space{Predictors: []string{"phast"}}, Strategy: "halving"}.Normalized(apps, 20_000)
	if n.Halving != (Halving{Eta: 2, Rungs: 3, MinInstructions: 2000}) {
		t.Fatalf("halving defaults = %+v", n.Halving)
	}
	if n.Machine != "alderlake" || n.Instructions != 20_000 || !reflect.DeepEqual(n.Apps, apps) {
		t.Fatalf("defaults = %+v", n)
	}
	if !reflect.DeepEqual(n.Space.TrainAtDetect, []bool{false}) {
		t.Fatalf("train_at_detect default = %v", n.Space.TrainAtDetect)
	}
	g := Spec{Space: experiments.Space{Predictors: []string{"phast"}}, Halving: Halving{Eta: 4}}.Normalized(apps, 20_000)
	if g.Strategy != "grid" || g.Halving != (Halving{}) {
		t.Fatalf("grid normalization kept halving knobs: %+v", g)
	}
}

// TestParseSpecJSONRejects pins the typed-400 contract on hostile input:
// every rejection is a *SpecError naming the offending knob.
func TestParseSpecJSONRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"malformed json", `{"space":`, "unexpected EOF"},
		{"unknown field", `{"space":{"predictors":["phast"]},"bogus":1}`, "bogus"},
		{"trailing data", `{"space":{"predictors":["phast"]}}{"x":1}`, "trailing data"},
		{"bad strategy", `{"space":{"predictors":["phast"]},"strategy":"annealing"}`, "unknown strategy"},
		{"empty space", `{"space":{}}`, "no candidates"},
		{"bad predictor", `{"space":{"predictors":["quantum"]}}`, "quantum"},
		{"huge predictor arg", `{"space":{"predictors":["phast:999999999"]}}`, "out of range"},
		{"non-integer arg", `{"space":{"predictors":["phast:many"]}}`, "non-integer"},
		{"non-pow2 predictor arg", `{"space":{"predictors":["storesets:3"]}}`, "storesets:3"},
		{"bad sets", `{"space":{"phast_sets":[4]}}`, "phast_sets"},
		{"non-pow2 sets", `{"space":{"phast_sets":[17]}}`, "phast_sets"},
		{"bad tables", `{"space":{"phast_tables":[9]}}`, "phast_tables"},
		{"bad conf", `{"space":{"phast_conf":[0]}}`, "phast_conf"},
		{"dup tad", `{"space":{"predictors":["phast"],"train_at_detect":[true,true]}}`, "duplicate"},
		{"bad machine", `{"space":{"predictors":["phast"]},"machine":"cray"}`, "cray"},
		{"bad app", `{"space":{"predictors":["phast"]},"apps":["611.quake"]}`, "611.quake"},
		{"empty app", `{"space":{"predictors":["phast"]},"apps":[""]}`, "empty app"},
		{"bad trace digest", `{"space":{"predictors":["phast"]},"apps":["trace:zz"]}`, "trace"},
		{"tiny instructions", `{"space":{"predictors":["phast"]},"instructions":10}`, "instructions"},
		{"negative budget", `{"space":{"predictors":["phast"]},"budget":{"max_configs":-1}}`, "max_configs"},
		{"negative wall", `{"space":{"predictors":["phast"]},"budget":{"wall_clock_ms":-5}}`, "wall_clock_ms"},
		{"bad eta", `{"space":{"predictors":["phast"]},"halving":{"eta":99}}`, "eta"},
		{"bad rungs", `{"space":{"predictors":["phast"]},"halving":{"rungs":40}}`, "rungs"},
		{"bad min insts", `{"space":{"predictors":["phast"]},"halving":{"min_instructions":1}}`, "min_instructions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpecJSON([]byte(tc.body))
			if err == nil {
				t.Fatalf("accepted %s", tc.body)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *SpecError: %v", err, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestExampleSpecsParse keeps the ready-made ablation specs under
// examples/jobspecs/ submittable — EXPERIMENTS.md points users at them.
func TestExampleSpecsParse(t *testing.T) {
	files, err := filepath.Glob("../../examples/jobspecs/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpecJSON(data); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestParseSpecJSONAccepts sanity-checks the happy path, including a
// well-formed trace-digest app (existence is a run-time question).
func TestParseSpecJSONAccepts(t *testing.T) {
	body := `{
		"space": {
			"predictors": ["phast-tables:1", "phast-tables:2", "phast-tables:4", "phast-tables:8"],
			"train_at_detect": [false, true]
		},
		"strategy": "halving", "seed": 3,
		"budget": {"max_configs": 6},
		"halving": {"eta": 2, "rungs": 2},
		"apps": ["511.povray", "trace:` + strings.Repeat("ab", 32) + `"],
		"instructions": 4000
	}`
	spec, err := ParseSpecJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(spec.Space.Variants()); got != 8 {
		t.Fatalf("candidates = %d, want 8", got)
	}
}
