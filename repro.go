// Package repro is the public facade of this reproduction of
// "Effective Context-Sensitive Memory Dependence Prediction" (PHAST,
// HPCA 2024). It exposes the simulator, the predictor zoo, the SPEC CPU
// 2017-like workload suite, and the experiment harness that regenerates
// every table and figure of the paper's evaluation.
//
// Quick start:
//
//	res, err := repro.Simulate(repro.Config{App: "511.povray", Predictor: "phast"})
//	fmt.Printf("IPC %.2f, violation MPKI %.3f\n", res.IPC(), res.ViolationMPKI())
//
// See README.md for the architecture overview and EXPERIMENTS.md for the
// paper-versus-measured record.
package repro

import (
	"io"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config selects one simulation run. Zero values pick the paper defaults
// (Alder Lake machine, PHAST predictor, 300k-instruction stream).
type Config = sim.Config

// Result holds the measured counters and derived metrics of one run.
type Result = stats.Run

// Simulate executes one full-core simulation.
func Simulate(cfg Config) (*Result, error) { return sim.Run(cfg) }

// Apps returns the names of the workload suite, sorted.
func Apps() []string { return workload.Names() }

// Machines returns the available machine configuration names, oldest
// generation first.
func Machines() []string { return config.Names() }

// Predictors returns the finite predictors of the paper's headline
// comparison. The family table in internal/sim (family.go) and README's
// "Predictor specs" give the full spec grammar, including budget sweeps
// and unlimited variants.
func Predictors() []string { return sim.PredictorNames() }

// ExperimentNames lists the reproducible tables and figures in paper order.
func ExperimentNames() []string {
	all := experiments.All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	return names
}

// ExperimentOptions scope an experiment run.
type ExperimentOptions struct {
	// Apps restricts the workload list (default: the whole suite).
	Apps []string
	// Instructions per simulation (default 300000).
	Instructions int
	// Out receives the rendered tables.
	Out io.Writer
}

// RunExperiment regenerates one table or figure by name ("fig1".."fig16",
// "table1", "table2", or "all").
func RunExperiment(name string, opt ExperimentOptions) error {
	run := func(r *experiments.Runner) error { return experiments.RunAll(r) }
	if name != "all" {
		e, err := experiments.ByName(name)
		if err != nil {
			return err
		}
		run = e.Run
	}
	r := experiments.NewRunner(experiments.Options{
		Apps: opt.Apps, Instructions: opt.Instructions, Out: opt.Out,
	})
	defer r.Close()
	return run(r)
}

// GeoMean is the geometric mean used for all IPC aggregation.
func GeoMean(vals []float64) float64 { return stats.GeoMean(vals) }
