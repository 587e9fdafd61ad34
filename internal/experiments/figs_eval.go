package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/viz"
)

// Fig12 reproduces the forwarding-filter ablation (§VI-B): geometric-mean
// IPC versus the ideal predictor with the §IV-A1 optimisation off and on.
// PHAST benefits most: without the filter it learns stale older-store
// dependencies with long histories that shadow the correct entry.
func Fig12(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Fig. 12 — IPC vs ideal without (No FWD) and with (FWD) forwarding filtering",
		"predictor", "No FWD", "FWD")
	chart := viz.BarChart{
		Title: "Fig. 12 (chart) — IPC vs ideal, No FWD vs FWD", Width: 50,
		Baseline: 1.0, Min: 0.8, Max: 1.01,
	}
	var variants []sim.Config
	for _, v := range headline.Variants() {
		noFwd := v
		noFwd.FwdFilterOff = true
		variants = append(variants, noFwd, v)
	}
	ideal, grid, err := r.vsIdeal(variants)
	if err != nil {
		return err
	}
	for i, pred := range headline.Predictors {
		noFwd, fwd := GeoIPCvsIdeal(grid[2*i], ideal), GeoIPCvsIdeal(grid[2*i+1], ideal)
		t.AddRowf(pred, noFwd, fwd)
		chart.Add(pred+" no-fwd", noFwd)
		chart.Add(pred+" fwd", fwd)
	}
	fmt.Fprintln(o.Out, t)
	fmt.Fprintln(o.Out, chart.String())
	return nil
}

// headline is the paper's headline comparison: every finite predictor at
// its Table II size (Figs. 12 and 14–16).
var headline = Space{Predictors: sim.PredictorNames()}

// budgets is Fig. 13's sweep: every headline family at each of its storage
// budgets, in family order. examples/jobspecs/geometry.json searches
// PHAST's part of it.
var budgets = func() Space {
	var sp Space
	for _, f := range sim.Families() {
		if f.Headline {
			sp.Predictors = append(sp.Predictors, f.BudgetSpecs()...)
		}
	}
	return sp
}()

// Fig13 reproduces the performance-versus-storage trade-off sweep.
func Fig13(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Fig. 13 — performance vs storage", "predictor", "size KB", "IPC/ideal")
	sc := viz.Scatter{Title: "Fig. 13 (chart) — IPC/ideal by storage budget", XLabel: "KB", Width: 44}
	ideal, grid, err := r.vsIdeal(budgets.Variants())
	if err != nil {
		return err
	}
	for i, spec := range budgets.Predictors {
		pred, err := sim.NewPredictor(spec)
		if err != nil {
			return err
		}
		family, _, _ := strings.Cut(spec, ":")
		geo := GeoIPCvsIdeal(grid[i], ideal)
		t.AddRowf(spec, float64(pred.SizeBits())/8192, geo)
		sc.Add(family, float64(pred.SizeBits())/8192, geo)
	}
	fmt.Fprintln(o.Out, t)
	fmt.Fprintln(o.Out, sc.String())
	return nil
}

// Fig14 reproduces the per-app MPKI comparison of the evaluated predictors,
// split into memory order violations (FN) and false dependencies (FP).
func Fig14(r *Runner) error {
	o := r.Opt()
	header := []string{"app"}
	for _, p := range headline.Predictors {
		header = append(header, p+" FN", p+" FP")
	}
	t := stats.NewTable("Fig. 14 — MPKI of the evaluated predictors", header...)
	grid, err := r.RunGrid(headline.Variants())
	if err != nil {
		return err
	}
	for i, app := range o.Apps {
		row := []interface{}{app}
		for _, runs := range grid {
			row = append(row, runs[i].ViolationMPKI(), runs[i].FalseDepMPKI())
		}
		t.AddRowf(row...)
	}
	avg := []interface{}{"average"}
	for _, runs := range grid {
		fn, fp := MeanMPKI(runs)
		avg = append(avg, fn, fp)
	}
	t.AddRowf(avg...)
	fmt.Fprintln(o.Out, t)
	return nil
}

// Fig15 reproduces the per-app IPC of every predictor normalised to ideal,
// plus the headline geomeans and speedups of PHAST over each baseline.
func Fig15(r *Runner) error {
	o := r.Opt()
	preds := headline.Predictors
	ideal, grid, err := r.vsIdeal(headline.Variants())
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig. 15 — IPC normalised to ideal MDP", append([]string{"app"}, preds...)...)
	ratios := map[string][]float64{}
	perApp := map[string][]*stats.Run{}
	for i, p := range preds {
		perApp[p] = grid[i]
		for j := range grid[i] {
			ratios[p] = append(ratios[p], grid[i][j].Speedup(ideal[j]))
		}
	}
	for i, app := range o.Apps {
		row := []interface{}{app}
		for _, p := range preds {
			row = append(row, ratios[p][i])
		}
		t.AddRowf(row...)
	}
	geoRow := []interface{}{"geomean"}
	chart := viz.BarChart{
		Title: "Fig. 15 (chart) — geomean IPC vs ideal", Width: 50,
		Baseline: 1.0, Min: 0.9, Max: 1.01,
	}
	for _, p := range preds {
		g := stats.GeoMean(ratios[p])
		geoRow = append(geoRow, g)
		chart.Add(p, g)
	}
	t.AddRowf(geoRow...)
	fmt.Fprintln(o.Out, t)
	fmt.Fprintln(o.Out, chart.String())

	// Headline speedups: PHAST versus each baseline (mean and max).
	s := stats.NewTable("PHAST speedups over baselines", "baseline", "geomean speedup %", "max speedup %")
	for _, p := range preds {
		if p == "phast" {
			continue
		}
		sp := make([]float64, len(o.Apps))
		maxSp := 0.0
		for i := range o.Apps {
			sp[i] = perApp["phast"][i].Speedup(perApp[p][i])
			if sp[i] > maxSp {
				maxSp = sp[i]
			}
		}
		s.AddRowf(p, (stats.GeoMean(sp)-1)*100, (maxSp-1)*100)
	}
	fmt.Fprintln(o.Out, s)
	return nil
}

// Fig16 reproduces the predictor energy comparison: per-access energy from
// the Cacti-P-calibrated model times the measured read/write traffic.
func Fig16(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Fig. 16 — predictor energy (nJ, suite total)",
		"predictor", "pJ/access", "reads nJ", "writes nJ", "total nJ")
	grid, err := r.RunGrid(headline.Variants())
	if err != nil {
		return err
	}
	for i, p := range headline.Predictors {
		runs := grid[i]
		var reads, writes uint64
		for _, run := range runs {
			reads += run.PredictorReads
			writes += run.PredictorWrites
		}
		structs, err := sim.Structures(p)
		if err != nil {
			return err
		}
		per := energy.PerAccessPJ(structs)
		// Reads counted per structure probe: normalise to whole-predictor
		// accesses.
		parallel := energy.ParallelFor(structs)
		e := energy.OfRun(per, parallel, reads/uint64(parallel), writes)
		t.AddRowf(p, per, e.ReadsNJ, e.WritesNJ, e.TotalNJ())
	}
	fmt.Fprintln(o.Out, t)
	return nil
}

// Table1 prints the simulated system configuration (the paper's Table I).
func Table1(r *Runner) error {
	o := r.Opt()
	m := config.AlderLake()
	t := stats.NewTable("Table I — system configuration", "parameter", "value")
	t.AddRow("Machine", m.Name)
	t.AddRow("Front-end width", fmt.Sprintf("%d-wide fetch and decode", m.FetchWidth))
	t.AddRow("Back-end width", fmt.Sprintf("%d execution ports and commit width %d", m.IssuePorts, m.CommitWidth))
	t.AddRow("Load/store ports", fmt.Sprintf("%d load, %d store", m.LoadPorts, m.StorePorts))
	t.AddRow("ROB/IQ/LQ/SQ", fmt.Sprintf("%d/%d/%d/%d entries", m.ROB, m.IQ, m.LQ, m.SQ))
	t.AddRow("L1I", fmt.Sprintf("%dKB %d ways, %d-cycle hit, %d MSHRs", m.L1I.SizeKB, m.L1I.Ways, m.L1I.HitLatency, m.L1I.MSHRs))
	t.AddRow("L1D", fmt.Sprintf("%dKB %d ways, %d-cycle hit, %d MSHRs", m.L1D.SizeKB, m.L1D.Ways, m.L1D.HitLatency, m.L1D.MSHRs))
	t.AddRow("L1D prefetcher", fmt.Sprintf("IP-stride, degree %d", m.PrefetchDegree))
	t.AddRow("L2", fmt.Sprintf("%dKB %d ways, %d-cycle hit", m.L2.SizeKB, m.L2.Ways, m.L2.HitLatency))
	t.AddRow("L3", fmt.Sprintf("%dKB %d ways, %d-cycle hit", m.L3.SizeKB, m.L3.Ways, m.L3.HitLatency))
	t.AddRow("Memory", fmt.Sprintf("%d-cycle access latency", m.MemLatency))
	fmt.Fprintln(o.Out, t)
	return nil
}

// Table2 prints the predictor configurations: storage and per-access energy
// (the paper's Table II).
func Table2(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Table II — predictor configurations",
		"predictor", "size KB", "pJ/access")
	for _, spec := range sim.PredictorNames() {
		pred, err := sim.NewPredictor(spec)
		if err != nil {
			return err
		}
		structs, err := sim.Structures(spec)
		if err != nil {
			return err
		}
		t.AddRowf(spec, float64(pred.SizeBits())/8192, energy.PerAccessPJ(structs))
	}
	fmt.Fprintln(o.Out, t)
	return nil
}
