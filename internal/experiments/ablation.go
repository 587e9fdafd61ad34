package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The ablation sweeps. Each is also a ready-made autotuner job under
// examples/jobspecs/ (trainpoint.json, confidence.json, history.json), and
// TestExampleSpecsMirrorAblations keeps the two the same sweep.
var (
	// trainPoints is every headline predictor trained at commit and at
	// detection.
	trainPoints = Space{Predictors: sim.PredictorNames(), TrainAtDetect: []bool{false, true}}
	// confMaxes are PHAST confidence ceilings.
	confMaxes = Space{Predictors: []string{"phast-conf:1", "phast-conf:3", "phast-conf:7", "phast-conf:15"}}
	// tableCounts are prefixes of PHAST's history length sequence.
	tableCounts = Space{Predictors: []string{"phast-tables:1", "phast-tables:2", "phast-tables:4", "phast-tables:6", "phast-tables:8"}}
)

// AblationTrainPoint reproduces the §IV-A1 update-point analysis: every
// predictor run with training at mispeculation detection versus at commit.
// The paper found detection-time updates better for all the baselines (fast
// training wins) except NoSQ (neutral), while PHAST prefers commit-time
// updates, which avoid learning transient non-youngest stores and paths.
func AblationTrainPoint(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Ablation — predictor update point (IPC vs ideal)",
		"predictor", "at detection", "at commit")
	ideal, grid, err := r.vsIdeal(trainPoints.Variants())
	if err != nil {
		return err
	}
	for i, pred := range trainPoints.Predictors {
		t.AddRowf(pred, GeoIPCvsIdeal(grid[2*i+1], ideal), GeoIPCvsIdeal(grid[2*i], ideal))
	}
	fmt.Fprintln(o.Out, t)
	return nil
}

// AblationConfidence sweeps PHAST's confidence ceiling — the mechanism that
// silences aliased or data-dependent entries (§IV-A2). ConfMax 0 disables
// predictions entirely; 1 gives one strike; 15 is the paper's 4-bit counter.
func AblationConfidence(r *Runner) error {
	return argTable(r, confMaxes, stats.NewTable("Ablation — PHAST confidence ceiling (IPC vs ideal)",
		"conf max", "IPC/ideal"))
}

// AblationHistoryTables sweeps the number of PHAST tables (prefixes of the
// geometric length sequence), quantifying what each extra history length
// buys — the design-choice study behind the (0..32) sequence of §IV-B.
func AblationHistoryTables(r *Runner) error {
	return argTable(r, tableCounts, stats.NewTable("Ablation — PHAST history length set (IPC vs ideal)",
		"lengths", "IPC/ideal"))
}

// argTable adds one row per predictor spec of sp to t, its argument and
// its geometric-mean IPC versus ideal, and prints t.
func argTable(r *Runner, sp Space, t *stats.Table) error {
	ideal, grid, err := r.vsIdeal(sp.Variants())
	if err != nil {
		return err
	}
	for i, spec := range sp.Predictors {
		_, arg, _ := strings.Cut(spec, ":")
		t.AddRowf(arg, GeoIPCvsIdeal(grid[i], ideal))
	}
	fmt.Fprintln(r.Opt().Out, t)
	return nil
}

// AblationFilter compares the mis-speculation filtering mechanisms: the
// paper's §IV-A1 forwarding filter, no filtering (gem5-like), and NoSQ's
// SVW/SSBF commit-time verification (§VII) — the related-work mechanism the
// paper positions its filter against.
func AblationFilter(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Ablation — mis-speculation filtering (IPC vs ideal)",
		"predictor", "none", "svw", "fwd")
	ideal, grid, err := r.vsIdeal(filterModes(headline))
	if err != nil {
		return err
	}
	for i, pred := range headline.Predictors {
		t.AddRowf(pred, GeoIPCvsIdeal(grid[3*i], ideal), GeoIPCvsIdeal(grid[3*i+1], ideal), GeoIPCvsIdeal(grid[3*i+2], ideal))
	}
	fmt.Fprintln(o.Out, t)
	return nil
}

// filterModes crosses every variant of sp with the three filter modes of
// abl-filter, in its column order: none, SVW, forwarding filter.
func filterModes(sp Space) []sim.Config {
	var out []sim.Config
	for _, v := range sp.Variants() {
		none, svw := v, v
		none.FwdFilterOff, svw.SVWFilter = true, true
		out = append(out, none, svw, v)
	}
	return out
}
