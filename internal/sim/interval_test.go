package sim

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// TestIntervalConfigNormalization pins the cache-compatibility rules: a
// sequential Config and its Intervals<=1 spellings normalize (and so hash)
// identically, while a real interval split is a distinct key.
func TestIntervalConfigNormalization(t *testing.T) {
	seq := Config{App: "519.lbm"}.Normalized()
	for _, cfg := range []Config{
		{App: "519.lbm", Intervals: 0},
		{App: "519.lbm", Intervals: 1},
		{App: "519.lbm", Intervals: 1, IntervalWarmup: 5000},
		{App: "519.lbm", Intervals: -3},
	} {
		if got := cfg.Normalized(); got != seq {
			t.Errorf("%+v normalized to %+v, want the sequential form", cfg, got)
		}
	}
	par := Config{App: "519.lbm", Intervals: 4}.Normalized()
	if par == seq {
		t.Error("a 4-interval config normalized onto the sequential key")
	}
	if par.IntervalWarmup != DefaultIntervalWarmup {
		t.Errorf("warm-up defaulted to %d, want %d", par.IntervalWarmup, DefaultIntervalWarmup)
	}
	cold := Config{App: "519.lbm", Intervals: 4, IntervalWarmup: -1}.Normalized()
	if cold.IntervalWarmup != 0 {
		t.Errorf("negative warm-up normalized to %d, want 0", cold.IntervalWarmup)
	}
}

// TestIntervalJSONOmitted: sequential configs must serialize without the
// interval fields, so persisted cache keys written before the fields
// existed still match byte-for-byte.
func TestIntervalJSONOmitted(t *testing.T) {
	data, err := json.Marshal(Config{App: "519.lbm"}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"Intervals", "IntervalWarmup", "OracleDigest"} {
		if string(data) != "" && json.Valid(data) {
			var m map[string]any
			json.Unmarshal(data, &m)
			if _, ok := m[field]; ok {
				t.Errorf("sequential config JSON carries %q: %s", field, data)
			}
		}
	}
}

// TestIntervalRunMatchesFacade: the facade's interval path is deterministic
// and digest-stamped; rerunning the same interval config is byte-identical,
// and the sequential run of the same workload commits the same stream.
func TestIntervalRunMatchesFacade(t *testing.T) {
	cfg := Config{App: "511.povray", Instructions: 20000, Intervals: 4, IntervalWarmup: 2000}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("interval runs differ:\n%+v\n%+v", a, b)
	}
	if a.OracleDigest == 0 {
		t.Error("interval run missing its oracle digest")
	}
	if a.Committed != 20000 {
		t.Errorf("committed %d, want 20000", a.Committed)
	}
	seq, err := Run(Config{App: "511.povray", Instructions: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if seq.OracleDigest != 0 {
		t.Error("sequential run must not stamp an oracle digest")
	}
	if seq.Committed != a.Committed || seq.Loads != a.Loads || seq.Stores != a.Stores {
		t.Errorf("architectural stream differs: seq %d/%d/%d vs intervals %d/%d/%d",
			seq.Committed, seq.Loads, seq.Stores, a.Committed, a.Loads, a.Stores)
	}
}

// TestIntervalVerifyRun: the verified interval path (per-retirement oracle
// checking inside every interval) succeeds and agrees with the unverified
// interval path counter-for-counter.
func TestIntervalVerifyRun(t *testing.T) {
	cfg := Config{App: "502.gcc_1", Instructions: 16000, Intervals: 3, IntervalWarmup: 1500}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Verify = true
	verified, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, verified) {
		t.Errorf("verified interval run differs:\n%+v\n%+v", plain, verified)
	}
}

// TestIntervalBadConfig: interval runs surface setup failures as typed
// config errors like sequential ones.
func TestIntervalBadConfig(t *testing.T) {
	_, err := Run(Config{App: "no-such-app", Intervals: 4})
	var se *SimError
	if !errors.As(err, &se) || se.Kind != ErrConfig {
		t.Errorf("got %v, want an ErrConfig SimError", err)
	}
}

// TestIntervalIPCTracksSequential: a warmed interval run must keep the
// history-based predictors working, so its stitched IPC stays close to the
// sequential run's for every predictor family. 511.povray has a few hot
// store-load conflicts that every family learns within the warm-up; an
// interval whose predictor cannot see the branch history (its folds frozen)
// mispredicts them on every instance and loses half its IPC.
func TestIntervalIPCTracksSequential(t *testing.T) {
	const n, bound = 100_000, 0.04
	for _, pred := range append(PredictorNames(), "storevector") {
		t.Run(pred, func(t *testing.T) {
			seq, err := Run(Config{App: "511.povray", Predictor: pred, Instructions: n})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Run(Config{App: "511.povray", Predictor: pred, Instructions: n, Intervals: 4})
			if err != nil {
				t.Fatal(err)
			}
			seqIPC := float64(seq.Committed) / float64(seq.Cycles)
			parIPC := float64(par.Committed) / float64(par.Cycles)
			t.Logf("IPC sequential %.4f, 4 intervals %.4f (%+.1f%%); violations %d / %d",
				seqIPC, parIPC, 100*(parIPC/seqIPC-1), seq.MemOrderViolations, par.MemOrderViolations)
			if d := parIPC/seqIPC - 1; d < -bound || d > bound {
				t.Errorf("stitched IPC %.4f is %+.1f%% off the sequential %.4f (bound ±%.0f%%)",
					parIPC, 100*d, seqIPC, 100*bound)
			}
		})
	}
}
