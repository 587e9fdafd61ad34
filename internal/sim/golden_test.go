package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenRowsSHA256 pins the stats.Run rows of goldenConfigs bit for bit
// across commits. The determinism tests elsewhere compare a run with itself;
// this digest is what proves a pure-speed change to the timing model (issue
// skipping, dead-cycle jumps, data-structure swaps) left every counter
// untouched. A change that is meant to alter simulation output must bump
// BehaviorVersion and re-record the digest in the same commit.
const goldenRowsSHA256 = "548f34638c0141bb43ca1307338a3b511e8d4a7d76d6fa0a4a95f02e5069485d"

// goldenConfigs is the pinned matrix: memory-bound (mcf, omnetpp) and
// core-bound (povray, xz) apps under every headline predictor plus the
// oracle, each with the forwarding filter, without it, and with SVW — plus
// one detect-time-training run, one small-machine run and one
// interval-parallel run.
func goldenConfigs() []Config {
	const n = 20_000
	var cfgs []Config
	for _, app := range []string{"505.mcf", "520.omnetpp", "511.povray", "557.xz_1"} {
		for _, pred := range append(PredictorNames(), "ideal") {
			base := Config{App: app, Predictor: pred, Instructions: n}
			noFwd, svw := base, base
			noFwd.FwdFilterOff = true
			svw.SVWFilter = true
			cfgs = append(cfgs, base, noFwd, svw)
		}
	}
	return append(cfgs,
		Config{App: "505.mcf", Predictor: "phast", Instructions: n, TrainAtDetect: true},
		Config{App: "520.omnetpp", Predictor: "storesets", Machine: "nehalem", Instructions: n},
		Config{App: "505.mcf", Predictor: "phast", Instructions: n, Intervals: 2},
	)
}

// TestGoldenRows hashes the JSON rows of the pinned matrix and compares the
// digest with the one recorded when the matrix was introduced.
func TestGoldenRows(t *testing.T) {
	if got := rowsDigest(t, goldenConfigs()); got != goldenRowsSHA256 {
		t.Errorf("stats.Run rows of the golden matrix changed:\n got  %s\n want %s", got, goldenRowsSHA256)
	}
}

// goldenUnlimitedRowsSHA256 pins the rows of goldenUnlimitedConfigs, kept
// apart from goldenRowsSHA256 so that the older matrix's digest stays as
// recorded.
const goldenUnlimitedRowsSHA256 = "732e2d5d007d45d7b62818255df4ff88c4505e5a4f40fe790fee143c5e1b2a6f"

// goldenUnlimitedConfigs runs the map-backed unlimited predictors of Figs.
// 6–8 over the golden matrix's apps: the only rows that exercise their
// exact history keys.
func goldenUnlimitedConfigs() []Config {
	var cfgs []Config
	for _, app := range []string{"505.mcf", "520.omnetpp", "511.povray", "557.xz_1"} {
		for _, pred := range []string{"unlimited-phast", "unlimited-nosq:8", "unlimited-mdptage"} {
			cfgs = append(cfgs, Config{App: app, Predictor: pred, Instructions: 20_000})
		}
	}
	return cfgs
}

// TestGoldenUnlimitedRows hashes the JSON rows of goldenUnlimitedConfigs.
func TestGoldenUnlimitedRows(t *testing.T) {
	if got := rowsDigest(t, goldenUnlimitedConfigs()); got != goldenUnlimitedRowsSHA256 {
		t.Errorf("stats.Run rows of the unlimited golden matrix changed:\n got  %s\n want %s", got, goldenUnlimitedRowsSHA256)
	}
}

// rowsDigest runs cfgs in order and hashes their JSON rows, one per line.
func rowsDigest(t *testing.T, cfgs []Config) string {
	t.Helper()
	h := sha256.New()
	for _, cfg := range cfgs {
		run, err := Run(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		row, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(row, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil))
}
