package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runSelfTest runs every declared workload once at the tiny size, untraced
// and traced, each in its own process as the benchmark is normally run, and
// checks each result: the metric names printed match BENCHMARK.json in both
// directions (units included), and every output check passed. The traced
// runs also run the tiny probe of every workload, declared or not.
func runSelfTest(sp *spec) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var problems []string
	for _, w := range sp.Workloads {
		for _, traced := range []string{"0", "1"} {
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", "7", "-seconds", "1",
				"-trace", traced, "-tiny")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			label := fmt.Sprintf("%s --trace %s", w.Name, traced)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", label, err))
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				problems = append(problems, fmt.Sprintf("%s: last line is not a result: %v", label, err))
				continue
			}
			want := sp.EndToEnd
			if traced == "1" {
				want = sp.PerLayer
			}
			for _, m := range nameMismatch(res.Metrics, want) {
				problems = append(problems, label+": "+m)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				problems = append(problems, fmt.Sprintf("%s: correct=%v attempted=%d failed=%d",
					label, res.Correct, res.Attempted, res.Failed))
			}
			fmt.Printf("%-28s %d metrics, attempted %d, failed %d\n", label, len(res.Metrics), res.Attempted, res.Failed)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}
