package experiments

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig01 reproduces the 30-year MPKI timeline: branch predictor MPKI (gray
// circles) and memory dependence predictor MPKI split into memory order
// violations (false negatives) and false dependencies (false positives),
// measured on the Nehalem-like core the paper uses for this figure.
func Fig01(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Fig. 1 — MPKI of branch and memory dependence predictors (Nehalem-like core)",
		"predictor", "kind", "year", "MPKI(FN)", "MPKI(FP)")
	// Branch predictors: architectural replay, no timing model needed.
	for _, name := range bpred.DirNames() {
		vals := make([]float64, 0, len(o.Apps))
		for _, app := range o.Apps {
			tr, err := sim.TraceFor(app, o.Instructions, 0)
			if err != nil {
				return err
			}
			dir, err := bpred.NewDir(name)
			if err != nil {
				return err
			}
			vals = append(vals, bpred.MPKIOver(dir, tr.Insts))
		}
		t.AddRowf(name, "branch", bpred.DirYear(name), stats.Mean(vals), 0.0)
	}
	var timeline []sim.Family
	var specs []string
	for _, f := range sim.Families() {
		if f.Year > 0 {
			timeline, specs = append(timeline, f), append(specs, f.Name)
		}
	}
	grid, err := r.RunGrid(onMachine("nehalem", Space{Predictors: specs}.Variants()))
	if err != nil {
		return err
	}
	for i, f := range timeline {
		fn, fp := MeanMPKI(grid[i])
		t.AddRowf(f.Name, "mdp", f.Year, fn, fp)
	}
	fmt.Fprintln(o.Out, t)
	return nil
}

// fig2Predictors are the predictors of the generational study.
var fig2Predictors = []string{"storesets", "storevector", "nosq", "mdptage", "phast"}

// Fig02a reproduces the MPKI-per-generation trend: memory dependence
// misprediction MPKI grows with machine size for every predictor.
func Fig02a(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Fig. 2a — average total MDP MPKI across processor generations",
		append([]string{"machine", "year"}, fig2Predictors...)...)
	gens := config.Generations()
	var variants []sim.Config
	for _, m := range gens {
		variants = append(variants, onMachine(m.Name, Space{Predictors: fig2Predictors}.Variants())...)
	}
	grid, err := r.RunGrid(variants)
	if err != nil {
		return err
	}
	for i, m := range gens {
		row := []interface{}{m.Name, m.Year}
		for _, runs := range grid[i*len(fig2Predictors) : (i+1)*len(fig2Predictors)] {
			fn, fp := MeanMPKI(runs)
			row = append(row, fn+fp)
		}
		t.AddRowf(row...)
	}
	fmt.Fprintln(o.Out, t)
	return nil
}

// Fig02b reproduces the performance-gap-per-generation trend: percent IPC
// lost versus an ideal predictor, growing with machine size.
func Fig02b(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Fig. 2b — performance gap to ideal MDP (%) across processor generations",
		append([]string{"machine", "year"}, fig2Predictors...)...)
	gens := config.Generations()
	preds := append([]string{"ideal"}, fig2Predictors...)
	var variants []sim.Config
	for _, m := range gens {
		variants = append(variants, onMachine(m.Name, Space{Predictors: preds}.Variants())...)
	}
	grid, err := r.RunGrid(variants)
	if err != nil {
		return err
	}
	for i, m := range gens {
		row := []interface{}{m.Name, m.Year}
		ideal := grid[i*len(preds)]
		for _, runs := range grid[i*len(preds)+1 : (i+1)*len(preds)] {
			row = append(row, (1-GeoIPCvsIdeal(runs, ideal))*100)
		}
		t.AddRowf(row...)
	}
	fmt.Fprintln(o.Out, t)
	return nil
}

// Fig04 reproduces the multi-store dependence study: the fraction of loads
// whose bytes come from two or more in-flight stores, and how many of those
// stores resolve in order (shared base register).
func Fig04(r *Runner) error {
	o := r.Opt()
	window := config.AlderLake().SQ
	t := stats.NewTable("Fig. 4 — loads depending on multiple stores",
		"app", "loads", "multi-dep %", "in-order providers %")
	multis := make([]float64, 0, len(o.Apps))
	inorder := make([]float64, 0, len(o.Apps))
	for _, app := range o.Apps {
		tr, err := sim.TraceFor(app, o.Instructions, 0)
		if err != nil {
			return err
		}
		ms := tr.AnalyzeMultiStore(window)
		t.AddRowf(app, ms.Loads, 100*ms.MultiFrac(), 100*ms.InOrderFrac())
		multis = append(multis, ms.MultiFrac())
		if ms.MultiDepLoads > 0 {
			inorder = append(inorder, ms.InOrderFrac())
		}
	}
	t.AddRowf("average", 0, 100*stats.Mean(multis), 100*stats.Mean(inorder))
	fmt.Fprintln(o.Out, t)
	return nil
}

// SuiteMix prints the instruction mix of every app — not a paper figure,
// but the standard sanity table for a trace-driven setup.
func SuiteMix(r *Runner) error {
	o := r.Opt()
	t := stats.NewTable("Suite instruction mix", "app", "mix")
	for _, app := range o.Apps {
		prog, err := workload.ByName(app)
		if err != nil {
			return err
		}
		tr := trace.Generate(prog, o.Instructions, 0)
		t.AddRow(app, tr.MixOf().String())
	}
	fmt.Fprintln(o.Out, t)
	return nil
}
