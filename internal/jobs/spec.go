// Package jobs is the design-space autotuner: it turns the paper's one-shot
// ablation sweeps (history lengths, table geometry, confidence bits, train
// points) into resumable asynchronous search jobs behind POST /v1/jobs.
//
// A job is a Spec — an experiments.Space of predictor configurations (the
// sweep description paperfigs runs too), a search strategy (grid, random,
// successive halving on Muops-weighted IPC), a seed and a budget — owned
// by a tenant. The Controller expands the spec into deterministic trial
// batches through experiments.Runner, so every trial lands in the
// content-addressed run cache and coalesces fleet-wide, and checkpoints
// job state atomically to disk after every rung: a killed daemon resumes
// the job without re-simulating anything the cache already holds. Jobs are keyed by the canonical digest of (tenant, normalized
// spec), so resubmitting the same spec under the same tenant is idempotent.
//
// See DESIGN.md §18 for the job model, checkpoint format and idempotency
// contract.
package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Search-space bounds. Hostile specs must fail with a typed SpecError before
// any allocation or simulation scales with their values (FuzzJobSpec pins
// this), so every axis is capped.
const (
	// MaxCandidates bounds the expanded candidate set of one job.
	MaxCandidates = 512
	// MaxAxis bounds the space's predictor list.
	MaxAxis = 64
	// MaxApps bounds a job's workload list.
	MaxApps = 16
	// MaxInstructions bounds per-trial stream length at full fidelity.
	MaxInstructions = 50_000_000
	// MaxRungs bounds a halving schedule's depth.
	MaxRungs = 8
)

// SpecError is the typed rejection for a malformed or hostile job spec. The
// serving layer maps it to HTTP 400 bad_request; anything else escaping
// spec validation is a bug (the fuzz target enforces this).
type SpecError struct {
	Msg string
}

func (e *SpecError) Error() string { return "jobs: bad spec: " + e.Msg }

func specErrf(format string, args ...any) error {
	return &SpecError{Msg: fmt.Sprintf(format, args...)}
}

// Budget bounds a job's footprint.
type Budget struct {
	// MaxConfigs caps how many candidates enter the search (grid truncates
	// in candidate order, random samples). 0 = all.
	MaxConfigs int `json:"max_configs,omitempty"`
	// WallClockMS stops the job between rungs once exceeded; the job then
	// finishes as done with budget_exhausted set and the best candidate so
	// far as winner. 0 = no wall-clock bound.
	WallClockMS int64 `json:"wall_clock_ms,omitempty"`
}

// Halving tunes the successive-halving schedule (strategy "halving").
type Halving struct {
	// Eta is the promotion factor: each rung keeps ceil(count/eta)
	// candidates for the next. Default 2.
	Eta int `json:"eta,omitempty"`
	// Rungs is the schedule depth; the final rung runs at the spec's full
	// instruction count, each earlier rung at 1/eta of the next (floored at
	// MinInstructions). Default 3.
	Rungs int `json:"rungs,omitempty"`
	// MinInstructions floors the cheapest rung's stream length. Default 2000.
	MinInstructions int `json:"min_instructions,omitempty"`
}

// Spec describes one autotuner job. The zero values of defaultable fields
// are filled by Normalized before the spec is digested, so two specs
// describing the same search hash identically.
type Spec struct {
	// Space is the sweep searched; its variants are the candidates, and the
	// search breaks ties by a candidate's index into Space.Variants().
	Space    experiments.Space `json:"space"`
	Strategy string            `json:"strategy,omitempty"` // grid | random | halving (default grid)
	// Seed drives the search's stochastic parts (the random strategy's
	// sample). It never reaches trial configs: trials use each app's
	// default stream, so jobs with different search seeds share cached runs.
	Seed    int64   `json:"seed,omitempty"`
	Budget  Budget  `json:"budget,omitempty"`
	Halving Halving `json:"halving,omitempty"`
	// Apps is the workload list every trial runs over (default: the
	// controller's suite). Scores weight apps by micro-op count.
	Apps []string `json:"apps,omitempty"`
	// Machine is the machine configuration (default alderlake).
	Machine string `json:"machine,omitempty"`
	// Instructions is the full-fidelity per-run stream length (default: the
	// controller's).
	Instructions int `json:"instructions,omitempty"`
}

// ParseSpecJSON strictly decodes and validates a job spec. Every rejection
// — malformed JSON, unknown fields, out-of-range knobs — is a typed
// *SpecError; a parsed spec is structurally safe to normalize and plan
// (bounded candidate count, bounded instructions) but not yet defaulted.
func ParseSpecJSON(data []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, specErrf("%v", err)
	}
	// Trailing garbage after the spec object is a malformed request, not an
	// ignorable suffix.
	if dec.More() {
		return Spec{}, specErrf("trailing data after spec object")
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Validate checks every knob's bounds, tolerating zero values (Normalized
// fills them). All rejections are typed *SpecError.
func (s Spec) Validate() error {
	switch s.Strategy {
	case "", "grid", "random", "halving":
	default:
		return specErrf("unknown strategy %q (want grid, random or halving)", s.Strategy)
	}
	if s.Instructions != 0 && (s.Instructions < 1000 || s.Instructions > MaxInstructions) {
		return specErrf("instructions %d out of range [1000, %d]", s.Instructions, MaxInstructions)
	}
	if s.Machine != "" {
		if _, err := config.ByName(s.Machine); err != nil {
			return specErrf("%v", err)
		}
	}
	if len(s.Apps) > MaxApps {
		return specErrf("%d apps (max %d)", len(s.Apps), MaxApps)
	}
	for _, app := range s.Apps {
		if app == "" {
			return specErrf("empty app name")
		}
		if digest, ok, err := sim.TraceDigest(app); ok || err != nil {
			if err != nil {
				return specErrf("app %q: %v", app, err)
			}
			_ = digest // a well-formed trace digest; existence is checked at run time
			continue
		}
		if _, err := workload.ByName(app); err != nil {
			return specErrf("%v", err)
		}
	}
	sp := s.Space
	if len(sp.Predictors) > MaxAxis {
		return specErrf("%d predictors (max %d)", len(sp.Predictors), MaxAxis)
	}
	for _, spec := range sp.Predictors {
		if err := sim.CheckPredictor(spec); err != nil {
			return specErrf("predictors: %v", err)
		}
	}
	if len(sp.TrainAtDetect) > 2 {
		return specErrf("train_at_detect lists %d values (max 2)", len(sp.TrainAtDetect))
	}
	if len(sp.TrainAtDetect) == 2 && sp.TrainAtDetect[0] == sp.TrainAtDetect[1] {
		return specErrf("duplicate train_at_detect value")
	}
	n := len(s.Space.Variants())
	if n == 0 {
		return specErrf("space selects no candidates")
	}
	if n > MaxCandidates {
		return specErrf("space expands to %d candidates (max %d)", n, MaxCandidates)
	}
	if s.Budget.MaxConfigs < 0 {
		return specErrf("negative budget.max_configs")
	}
	if s.Budget.WallClockMS < 0 {
		return specErrf("negative budget.wall_clock_ms")
	}
	h := s.Halving
	if h.Eta != 0 && (h.Eta < 2 || h.Eta > 8) {
		return specErrf("halving.eta %d out of range [2, 8]", h.Eta)
	}
	if h.Rungs != 0 && (h.Rungs < 1 || h.Rungs > MaxRungs) {
		return specErrf("halving.rungs %d out of range [1, %d]", h.Rungs, MaxRungs)
	}
	if h.MinInstructions != 0 && (h.MinInstructions < 500 || h.MinInstructions > MaxInstructions) {
		return specErrf("halving.min_instructions %d out of range [500, %d]", h.MinInstructions, MaxInstructions)
	}
	return nil
}

// Normalized fills every defaultable field with the value the controller
// would use, so equal searches digest equal. defApps and defInsts are the
// controller's suite and full-fidelity instruction count.
func (s Spec) Normalized(defApps []string, defInsts int) Spec {
	if s.Strategy == "" {
		s.Strategy = "grid"
	}
	if len(s.Apps) == 0 {
		s.Apps = append([]string(nil), defApps...)
	}
	if s.Machine == "" {
		s.Machine = "alderlake"
	}
	if s.Instructions == 0 {
		s.Instructions = defInsts
	}
	if s.Strategy == "halving" {
		if s.Halving.Eta == 0 {
			s.Halving.Eta = 2
		}
		if s.Halving.Rungs == 0 {
			s.Halving.Rungs = 3
		}
		if s.Halving.MinInstructions == 0 {
			s.Halving.MinInstructions = 2000
		}
	} else {
		// Halving knobs are meaningless under grid/random; zero them so
		// they cannot split digests of identical searches.
		s.Halving = Halving{}
	}
	if len(s.Space.TrainAtDetect) == 0 {
		s.Space.TrainAtDetect = []bool{false}
	}
	return s
}

// Config builds the sim config of one trial: candidate v (a variant of the
// space) over app at the given stream length. The search seed deliberately
// does not propagate — trial runs must share cache entries across jobs.
func (s Spec) Config(v sim.Config, app string, insts int) sim.Config {
	v.App, v.Machine, v.Instructions = app, s.Machine, insts
	return v
}

// digestPrefix versions the job-identity preimage; bump it if the digested
// content changes meaning, so stale checkpoint directories cannot alias new
// jobs.
const digestPrefix = "phast-job/v1\n"

// DigestSpec returns the canonical job identity: sha256 over the versioned
// preimage of the owning tenant and the normalized spec's canonical JSON
// (Go's json.Marshal field order is declaration order, so the encoding is
// deterministic). Same tenant + same normalized spec ⇒ same job ID — the
// idempotency key of POST /v1/jobs.
func DigestSpec(tenant string, normalized Spec) string {
	blob, err := json.Marshal(normalized)
	if err != nil {
		// A Spec holds only marshalable fields; this cannot happen.
		panic("jobs: spec marshal: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(digestPrefix))
	h.Write([]byte(tenant))
	h.Write([]byte{'\n'})
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}
