package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
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
	preds := sim.PredictorNames()
	var variants []sim.Config
	for _, pred := range preds {
		variants = append(variants, sim.Config{Predictor: pred, TrainAtDetect: true}, sim.Config{Predictor: pred})
	}
	ideal, grid, err := r.vsIdeal(variants)
	if err != nil {
		return err
	}
	for i, pred := range preds {
		t.AddRowf(pred, GeoIPCvsIdeal(grid[2*i], ideal), GeoIPCvsIdeal(grid[2*i+1], ideal))
	}
	fmt.Fprintln(o.Out, t)
	return nil
}

// AblationConfidence sweeps PHAST's confidence ceiling — the mechanism that
// silences aliased or data-dependent entries (§IV-A2). ConfMax 0 disables
// predictions entirely; 1 gives one strike; 15 is the paper's 4-bit counter.
func AblationConfidence(r *Runner) error {
	t := stats.NewTable("Ablation — PHAST confidence ceiling (IPC vs ideal)",
		"conf max", "IPC/ideal")
	return sweepVsIdeal(r, t, "phast-conf:%d", []int{1, 3, 7, 15})
}

// AblationHistoryTables sweeps the number of PHAST tables (prefixes of the
// geometric length sequence), quantifying what each extra history length
// buys — the design-choice study behind the (0..32) sequence of §IV-B.
func AblationHistoryTables(r *Runner) error {
	t := stats.NewTable("Ablation — PHAST history length set (IPC vs ideal)",
		"lengths", "IPC/ideal")
	return sweepVsIdeal(r, t, "phast-tables:%d", []int{1, 2, 4, 6, 8})
}

// sweepVsIdeal adds one row per value v to t: v and the geometric-mean IPC
// versus ideal of the predictor spec fmt.Sprintf(format, v), all run as one
// batch; it then prints t.
func sweepVsIdeal(r *Runner, t *stats.Table, format string, values []int) error {
	specs := make([]string, len(values))
	for i, v := range values {
		specs[i] = fmt.Sprintf(format, v)
	}
	ideal, grid, err := r.vsIdeal(predVariants("alderlake", specs...))
	if err != nil {
		return err
	}
	for i, v := range values {
		t.AddRowf(v, GeoIPCvsIdeal(grid[i], ideal))
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
	preds := sim.PredictorNames()
	var variants []sim.Config
	for _, pred := range preds {
		variants = append(variants,
			sim.Config{Predictor: pred, FwdFilterOff: true},
			sim.Config{Predictor: pred, SVWFilter: true},
			sim.Config{Predictor: pred})
	}
	ideal, grid, err := r.vsIdeal(variants)
	if err != nil {
		return err
	}
	for i, pred := range preds {
		t.AddRowf(pred, GeoIPCvsIdeal(grid[3*i], ideal), GeoIPCvsIdeal(grid[3*i+1], ideal), GeoIPCvsIdeal(grid[3*i+2], ideal))
	}
	fmt.Fprintln(o.Out, t)
	return nil
}
