package experiments

import "fmt"

// Experiment names one reproducible table or figure.
type Experiment struct {
	Name string
	Desc string
	Run  func(*Runner) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "30-year branch vs MDP MPKI timeline (Nehalem-like core)", Fig01},
		{"fig2a", "MDP MPKI across processor generations", Fig02a},
		{"fig2b", "performance gap to ideal across generations", Fig02b},
		{"fig4", "loads depending on multiple stores", Fig04},
		{"fig6", "unlimited predictors: IPC and paths tracked", Fig06},
		{"fig7", "UnlimitedPHAST IPC vs ideal per app", Fig07},
		{"fig8", "UnlimitedPHAST MPKI per app", Fig08},
		{"fig9", "paths registered per app", Fig09},
		{"fig10", "unique conflicts per history length", Fig10},
		{"fig11", "IPC at several maximum history lengths", Fig11},
		{"fig12", "forwarding-filter ablation", Fig12},
		{"fig13", "performance vs storage sweep", Fig13},
		{"fig14", "MPKI per app, all predictors", Fig14},
		{"fig15", "IPC per app normalised to ideal, all predictors", Fig15},
		{"fig16", "predictor energy", Fig16},
		{"table1", "system configuration", Table1},
		{"table2", "predictor configurations", Table2},
		{"mix", "suite instruction mix (sanity)", SuiteMix},
		{"abl-train", "ablation: predictor update point (§IV-A1)", AblationTrainPoint},
		{"abl-conf", "ablation: PHAST confidence ceiling", AblationConfidence},
		{"abl-tables", "ablation: PHAST history length set", AblationHistoryTables},
		{"abl-filter", "ablation: mis-speculation filtering (FWD vs SVW vs none)", AblationFilter},
	}
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// RunAll executes exps in order (every experiment when none are given)
// against one shared runner (and its memoised simulation cache), each under
// a "== name: desc ==" header. The first failure aborts the sequence unless
// the runner was built with Options.KeepGoing, in which case the failed
// experiment is reported inline and the next one still runs — failed
// simulations become rows in the runner's failure log rather than a dead
// process. Cancellation of the runner's base context (SIGINT) always stops
// the sequence; completed tables have already been flushed to Out.
func RunAll(r *Runner, exps ...Experiment) error {
	if len(exps) == 0 {
		exps = All()
	}
	for _, e := range exps {
		fmt.Fprintf(r.Opt().Out, "== %s: %s ==\n", e.Name, e.Desc)
		err := e.Run(r)
		if err == nil {
			continue
		}
		if r.Opt().KeepGoing && r.Opt().Context.Err() == nil {
			fmt.Fprintf(r.Opt().Out, "== %s FAILED: %v ==\n", e.Name, err)
			continue
		}
		return fmt.Errorf("%s: %w", e.Name, err)
	}
	return nil
}
