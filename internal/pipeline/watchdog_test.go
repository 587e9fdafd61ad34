package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/mdp"
)

func activateFaults(t *testing.T, spec string) {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Activate(p))
}

// TestRunContextCancelled pins the cancellation latency contract: a run
// whose context is already cancelled aborts within one watchdog period and
// reports the context error, not a result.
func TestRunContextCancelled(t *testing.T) {
	tr := appTrace(t, "511.povray", 50_000)
	c, err := New(config.AlderLake(), mdp.NewIdeal(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunContext(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestChaosStallTripsWatchdog wedges the pipeline with an injected stall and
// asserts the zero-retirement watchdog converts the hang into a
// DeadlockError carrying a usable pipeline-state dump.
func TestChaosStallTripsWatchdog(t *testing.T) {
	activateFaults(t, "stall=1,seed=1")
	tr := appTrace(t, "511.povray", 20_000)
	opt := DefaultOptions()
	opt.WatchdogCycles = 8192 // small budget: the test should take microseconds
	c, err := New(config.AlderLake(), mdp.NewIdeal(), opt)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := c.RunContext(context.Background(), tr)
	var de *DeadlockError
	if !errors.As(rerr, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", rerr, rerr)
	}
	if de.Budget != opt.WatchdogCycles {
		t.Errorf("Budget = %d, want %d", de.Budget, opt.WatchdogCycles)
	}
	if de.CommitIdx < 0 || de.TraceLen != tr.Len() {
		t.Errorf("implausible deadlock location: %+v", de)
	}
	// The first watchdog poll at or past the budget with no commit: the same
	// cycle whether or not the loop jumps dead cycles before the stall.
	if de.Cycle != 8192 {
		t.Errorf("watchdog fired at cycle %d, want 8192", de.Cycle)
	}
	for _, want := range []string{"pipeline state", "ROB", "queues:", "fetch:",
		"wakeup: memEpoch", "awake", "memory-parked", "wheel-filed", "waiting on a producer", "next wheel wake"} {
		if !strings.Contains(de.Dump, want) {
			t.Errorf("dump lacks %q:\n%s", want, de.Dump)
		}
	}
	checkParkStates(t, de.Dump)
	if !strings.Contains(rerr.Error(), "no commit for 8192 cycles") {
		t.Errorf("error message should name the exhausted budget: %v", rerr)
	}
}

// TestWatchdogQuietOnHealthyRun guards against false positives: a normal run
// with a tight-but-sufficient watchdog budget completes.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	tr := appTrace(t, "511.povray", 20_000)
	opt := DefaultOptions()
	opt.WatchdogCycles = 8192
	c, err := New(config.AlderLake(), mdp.NewIdeal(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunContext(context.Background(), tr); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
}

// TestMaxCyclesDeadlockCarriesDump upgrades the old MaxCycles guard: the
// absolute ceiling now also reports a typed DeadlockError with a dump.
func TestMaxCyclesDeadlockCarriesDump(t *testing.T) {
	activateFaults(t, "stall=1,seed=1")
	tr := appTrace(t, "511.povray", 20_000)
	opt := DefaultOptions()
	opt.MaxCycles = 4096 // below the watchdog budget: the ceiling fires first
	opt.WatchdogCycles = 1 << 30
	c, err := New(config.AlderLake(), mdp.NewIdeal(), opt)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := c.RunContext(context.Background(), tr)
	var de *DeadlockError
	if !errors.As(rerr, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", rerr, rerr)
	}
	if de.Budget != 0 {
		t.Errorf("ceiling deadlock must report Budget 0, got %d", de.Budget)
	}
	if de.Cycle != opt.MaxCycles+1 {
		t.Errorf("ceiling fired at cycle %d, want %d", de.Cycle, opt.MaxCycles+1)
	}
	if !strings.Contains(de.Dump, "pipeline state") {
		t.Errorf("ceiling deadlock lacks a dump:\n%v", rerr)
	}
}
