package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/viz"
)

// Fig06 reproduces the unconstrained-predictor study (§III-C): IPC
// normalised to ideal and paths tracked for UnlimitedNoSQ at history
// lengths 1..16, UnlimitedMDPTAGE, and UnlimitedPHAST.
func Fig06(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Fig. 6 — unlimited predictors: IPC vs ideal and paths tracked",
		"predictor", "IPC/ideal", "avg paths")
	var specs []string
	for h := 1; h <= 16; h++ {
		specs = append(specs, fmt.Sprintf("unlimited-nosq:%d", h))
	}
	specs = append(specs, "unlimited-mdptage", "unlimited-phast")
	ideal, grid, err := r.vsIdeal(Space{Predictors: specs}.Variants())
	if err != nil {
		return err
	}
	for i, runs := range grid {
		paths := make([]float64, len(runs))
		for j, run := range runs {
			paths[j] = float64(run.PathsTracked)
		}
		t.AddRowf(specs[i], GeoIPCvsIdeal(runs, ideal), stats.Mean(paths))
	}
	fmt.Fprintln(o.Out, t)
	return nil
}

// Fig07 reproduces the per-app IPC of UnlimitedPHAST normalised to a
// perfect predictor (headline: ≈0.5% geomean gap).
func Fig07(r *Runner) error {
	o := r.Opt()
	ideal, grid, err := r.vsIdeal(Space{Predictors: []string{"unlimited-phast"}}.Variants())
	if err != nil {
		return err
	}
	runs := grid[0]
	t := stats.NewTable("Fig. 7 — UnlimitedPHAST IPC normalised to ideal", "app", "IPC/ideal")
	ratios := make([]float64, len(runs))
	for i, run := range runs {
		ratios[i] = run.Speedup(ideal[i])
		t.AddRowf(o.Apps[i], ratios[i])
	}
	t.AddRowf("geomean", stats.GeoMean(ratios))
	fmt.Fprintln(o.Out, t)
	return nil
}

// Fig08 reproduces UnlimitedPHAST's per-app MPKI split into memory order
// violations and false dependencies.
func Fig08(r *Runner) error {
	o := r.Opt()
	grid, err := r.RunGrid(Space{Predictors: []string{"unlimited-phast"}}.Variants())
	if err != nil {
		return err
	}
	runs := grid[0]
	t := stats.NewTable("Fig. 8 — UnlimitedPHAST MPKI", "app", "MPKI(FN)", "MPKI(FP)")
	fns, fps := []float64{}, []float64{}
	for i, run := range runs {
		t.AddRowf(o.Apps[i], run.ViolationMPKI(), run.FalseDepMPKI())
		fns = append(fns, run.ViolationMPKI())
		fps = append(fps, run.FalseDepMPKI())
	}
	t.AddRowf("average", stats.Mean(fns), stats.Mean(fps))
	fmt.Fprintln(o.Out, t)
	return nil
}

// Fig09 reproduces the paths-registered-per-app figure for UnlimitedPHAST.
func Fig09(r *Runner) error {
	o := r.Opt()
	grid, err := r.RunGrid(Space{Predictors: []string{"unlimited-phast"}}.Variants())
	if err != nil {
		return err
	}
	runs := grid[0]
	t := stats.NewTable("Fig. 9 — paths registered per app (UnlimitedPHAST)", "app", "paths")
	for i, run := range runs {
		t.AddRowf(o.Apps[i], run.PathsTracked)
	}
	fmt.Fprintln(o.Out, t)
	return nil
}

// Fig10 reproduces the distribution of unique conflicts per history length:
// each app is run with UnlimitedPHAST and the per-length first-training
// counts are aggregated.
func Fig10(r *Runner) error {
	o := r.Opt()
	agg := make([]uint64, 513)
	var mu sync.Mutex
	err := r.ForEachApp(func(_ int, app string) error {
		_, c, err := sim.RunCore(sim.Config{
			App: app, Predictor: "unlimited-phast", Instructions: o.Instructions,
		})
		if err != nil {
			return err
		}
		up, ok := c.Predictor().(*core.UnlimitedPHAST)
		if !ok {
			return fmt.Errorf("fig10: unexpected predictor type")
		}
		counts := up.ConflictLengthCounts()
		mu.Lock()
		for l, n := range counts {
			agg[l] += n
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	var total, upto32 uint64
	for l, n := range agg {
		total += n
		if l <= 32 {
			upto32 += n
		}
	}
	t := stats.NewTable("Fig. 10 — % of unique conflicts per history length", "history length", "% of conflicts")
	chart := viz.BarChart{Title: "Fig. 10 (chart) — conflicts per history length (%)", Width: 44, Format: "%.1f"}
	for l := 0; l <= 32; l++ {
		if total == 0 {
			break
		}
		pct := 100 * float64(agg[l]) / float64(total)
		t.AddRowf(fmt.Sprintf("%d", l), pct)
		chart.Add(fmt.Sprintf("len %2d", l), pct)
	}
	if total > 0 {
		t.AddRowf(">32", 100*float64(total-upto32)/float64(total))
		t.AddRowf("cumulative 0..32", 100*float64(upto32)/float64(total))
		chart.Add(">32", 100*float64(total-upto32)/float64(total))
	}
	fmt.Fprintln(o.Out, t)
	fmt.Fprintln(o.Out, chart.String())
	return nil
}

// fig11Caps are the maximum-history sweep points of Fig. 11 (0 = unlimited).
var fig11Caps = []int{8, 16, 32, 64, 0}

// Fig11 reproduces the maximum-history-length sweep of UnlimitedPHAST.
func Fig11(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Fig. 11 — UnlimitedPHAST IPC vs ideal at several maximum history lengths",
		"max history", "IPC/ideal")
	specs, labels := make([]string, len(fig11Caps)), make([]string, len(fig11Caps))
	for i, cap := range fig11Caps {
		specs[i], labels[i] = "unlimited-phast", "unlimited"
		if cap > 0 {
			specs[i], labels[i] = fmt.Sprintf("unlimited-phast:%d", cap), fmt.Sprintf("%d", cap)
		}
	}
	ideal, grid, err := r.vsIdeal(Space{Predictors: specs}.Variants())
	if err != nil {
		return err
	}
	for i, runs := range grid {
		t.AddRowf(labels[i], GeoIPCvsIdeal(runs, ideal))
	}
	fmt.Fprintln(o.Out, t)
	return nil
}
