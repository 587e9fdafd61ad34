package repro

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestPublicAPISurface(t *testing.T) {
	if len(Apps()) < 20 {
		t.Errorf("suite has only %d apps", len(Apps()))
	}
	if len(Machines()) < 5 {
		t.Errorf("only %d machine generations", len(Machines()))
	}
	want := map[string]bool{"phast": false, "storesets": false, "nosq": false, "mdptage": false}
	for _, p := range Predictors() {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("Predictors() missing %q", p)
		}
	}
	if len(ExperimentNames()) < 17 {
		t.Errorf("only %d experiments", len(ExperimentNames()))
	}
}

func TestSimulateSmoke(t *testing.T) {
	res, err := Simulate(Config{App: "511.povray", Predictor: "phast", Instructions: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 30000 || res.IPC() <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

// TestRunExperimentByName runs experiments by name and checks that each
// call leaves no goroutine behind: the runner's workers exit with the call.
func TestRunExperimentByName(t *testing.T) {
	baseline := runtime.NumGoroutine()
	settled := func(after string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("after %s: %d goroutines, %d before the first call", after, n, baseline)
		}
	}
	var buf bytes.Buffer
	err := RunExperiment("table1", ExperimentOptions{
		Apps: []string{"519.lbm"}, Instructions: 10000, Out: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ROB/IQ/LQ/SQ") {
		t.Errorf("table1 output:\n%s", buf.String())
	}
	for i := 0; i < 3; i++ {
		err := RunExperiment("fig12", ExperimentOptions{
			Apps: []string{"519.lbm"}, Instructions: 3000, Out: io.Discard,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	settled("three fig12 calls")
	if err := RunExperiment("fig99", ExperimentOptions{}); err == nil {
		t.Error("unknown experiment should error")
	}
	settled("the fig99 call")
}

func TestGeoMeanExported(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); got < 3.99 || got > 4.01 {
		t.Errorf("GeoMean = %f", got)
	}
}
