// Budgetsweep: the Fig. 13 experiment at example scale — how much storage
// does PHAST actually need? The paper's claim: even a 7.25KB PHAST beats
// every state-of-the-art predictor at any budget.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	err := repro.RunExperiment("fig13", repro.ExperimentOptions{
		Apps:         []string{"511.povray", "500.perlbench_3", "502.gcc_1"},
		Instructions: 120_000,
		Out:          os.Stdout,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("The paper's Fig. 13 point: PHAST at a fraction of the baselines'")
	fmt.Println("storage already sits closer to the ideal predictor.")
}
