package jobs

import (
	"errors"
	"testing"
)

// FuzzJobSpec is the POST /v1/jobs hardening target: arbitrary bytes
// through the strict parser must either produce a typed *SpecError (the
// serving layer's 400) or a spec that is safe to normalize, expand and plan
// without panicking and within the documented bounds. Anything else —
// an untyped error, a panic, an unbounded candidate set — is a bug.
func FuzzJobSpec(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"space":{}}`,
		`{"space":{"predictors":["phast"]}}`,
		`{"space":{"phast_tables":[1,2,4,8],"train_at_detect":[false,true]},"strategy":"halving","halving":{"eta":2,"rungs":3,"min_instructions":2000},"instructions":8000,"apps":["511.povray"],"seed":7}`,
		`{"space":{"phast_sets":[64,256,1024],"phast_conf":[3,7,15]},"strategy":"random","seed":42,"budget":{"max_configs":4,"wall_clock_ms":60000}}`,
		`{"space":{"predictors":["storesets","nosq","phast:256"]},"strategy":"grid","machine":"alderlake"}`,
		`{"space":{"predictors":["phast:-1"]}}`,
		`{"space":{"predictors":["phast:999999999999999999999"]}}`,
		`{"space":{"phast_tables":[0]}}`,
		`{"space":{"predictors":["phast"]},"apps":["trace:feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface"]}`,
		`{"space":{"predictors":["phast"]},"bogus":true}`,
		`{"space":{"predictors":["phast"]}}{"trailing":1}`,
		`[1,2,3]`,
		`"just a string"`,
		`{"space":{"predictors":[`,
		// The three seeds above that name the removed phast_sets,
		// phast_tables and phast_conf axes now exercise the unknown-field
		// rejection; these are their explicit-predictor equivalents.
		`{"space":{"predictors":["phast-tables:1","phast-tables:2","phast-tables:4","phast-tables:8"],"train_at_detect":[false,true]},"strategy":"halving","halving":{"eta":2,"rungs":3,"min_instructions":2000},"instructions":8000,"apps":["511.povray"],"seed":7}`,
		`{"space":{"predictors":["phast:64","phast:256","phast:1024","phast-conf:3","phast-conf:7","phast-conf:15"]},"strategy":"random","seed":42,"budget":{"max_configs":4,"wall_clock_ms":60000}}`,
		`{"space":{"predictors":["phast-tables:0"]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpecJSON(data)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("untyped rejection %T: %v", err, err)
			}
			return
		}
		// An accepted spec must be safe end-to-end: normalize, expand,
		// select, plan, digest — all bounded, none panicking.
		norm := spec.Normalized([]string{"511.povray"}, 10_000)
		cands := norm.Space.Variants()
		if len(cands) == 0 || len(cands) > MaxCandidates {
			t.Fatalf("accepted spec expands to %d candidates", len(cands))
		}
		selected := selectInitial(norm, len(cands))
		if len(selected) == 0 || len(selected) > len(cands) {
			t.Fatalf("selection of %d from %d candidates", len(selected), len(cands))
		}
		plan := planRungs(norm, len(selected))
		if len(plan) == 0 {
			t.Fatal("empty schedule for an accepted spec")
		}
		for _, r := range plan {
			if r.Count <= 0 || r.Instructions <= 0 || r.Instructions > MaxInstructions {
				t.Fatalf("degenerate rung %+v", r)
			}
		}
		if planCost(plan, len(norm.Apps)) <= 0 {
			t.Fatalf("non-positive planned cost for %+v", plan)
		}
		if DigestSpec("fuzz", norm) != DigestSpec("fuzz", norm) {
			t.Fatal("digest not stable")
		}
	})
}
