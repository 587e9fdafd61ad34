package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/signal"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/stats"
)

// chaosConfigs is the small batch the chaos tests run: two apps, three
// cheap predictors.
func chaosConfigs() []sim.Config {
	var cfgs []sim.Config
	for _, app := range []string{"511.povray", "519.lbm"} {
		for _, pred := range []string{"none", "alwayswait", "ideal"} {
			cfgs = append(cfgs, sim.Config{App: app, Predictor: pred, Instructions: 10_000})
		}
	}
	return cfgs
}

// TestChaosKeepGoingBatch is the acceptance run of the fault-injection
// harness: with panics injected into a batch, keep-going mode completes the
// whole batch; every faulted config yields a typed error row plus a
// sim.errors.* counter, every survivor is bit-identical to the fault-free
// baseline, and the worker pool leaves no goroutines behind.
func TestChaosKeepGoingBatch(t *testing.T) {
	cfgs := chaosConfigs()

	base := NewRunner(Options{Instructions: 10_000})
	baseline := base.RunConfigsDetailedContext(context.Background(), cfgs)
	base.Close()
	for _, res := range baseline {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	before := runtime.NumGoroutine()

	plan, err := faultinject.Parse("panic=0.5,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Activate(plan))

	m := stats.NewMetrics()
	r := NewRunner(Options{Instructions: 10_000, KeepGoing: true, Metrics: m})
	results := r.RunConfigsDetailedContext(context.Background(), cfgs)
	r.Close()

	var failed, ok int
	for i, res := range results {
		if res.Err != nil {
			failed++
			var se *sim.SimError
			if !errors.As(res.Err, &se) {
				t.Errorf("config %d: error is not a *sim.SimError: %v", i, res.Err)
			} else if se.Kind != sim.ErrPanic {
				t.Errorf("config %d: kind = %s, want %s", i, se.Kind, sim.ErrPanic)
			}
			continue
		}
		ok++
		if !reflect.DeepEqual(res.Run, baseline[i].Run) {
			t.Errorf("config %d (%s/%s): survivor differs from the fault-free baseline",
				i, res.Config.App, res.Config.Predictor)
		}
	}
	if failed == 0 || ok == 0 {
		t.Fatalf("want a mix of faulted and surviving configs, got %d failed / %d ok — adjust the plan seed", failed, ok)
	}
	if got := m.Get(sim.CounterErrorPrefix + string(sim.ErrPanic)); got != uint64(failed) {
		t.Errorf("%s%s = %d, want %d", sim.CounterErrorPrefix, sim.ErrPanic, got, failed)
	}

	var buf bytes.Buffer
	r.WriteFailures(&buf)
	if got := strings.Count(buf.String(), string(sim.ErrPanic)); got < failed {
		t.Errorf("failure log shows %d panic rows, want %d:\n%s", got, failed, buf.String())
	}

	// No goroutine leaks: the pool drains after Close. Poll briefly — worker
	// exit is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutine leak: %d before the chaos batch, %d after close", before, got)
	}
}

// TestFailFastCancelsSiblings pins the default batch semantics: the first
// failure cancels still-queued siblings, the batch reports the root cause
// (not a secondary cancellation), and the cancelled siblings are typed
// sim.ErrCancelled rows.
func TestFailFastCancelsSiblings(t *testing.T) {
	r := NewRunner(Options{Apps: []string{"511.povray", "519.lbm"}, Instructions: 5_000, Workers: 1})
	defer r.Close()
	cfgs := []sim.Config{
		{App: "511.povray", Predictor: "warp-drive"}, // unknown spec: fails immediately
		{App: "511.povray", Predictor: "none"},
		{App: "519.lbm", Predictor: "none"},
	}
	results := r.RunConfigsDetailedContext(context.Background(), cfgs)
	if kind := sim.KindOf(results[0].Err); kind != sim.ErrConfig {
		t.Fatalf("results[0]: kind %s, want %s (%v)", kind, sim.ErrConfig, results[0].Err)
	}
	for i := 1; i < len(results); i++ {
		if kind := sim.KindOf(results[i].Err); kind != sim.ErrCancelled {
			t.Errorf("results[%d]: kind %s, want %s (%v)", i, kind, sim.ErrCancelled, results[i].Err)
		}
	}
	grid, err := r.RunGrid(Space{Predictors: []string{"warp-drive", "none"}}.Variants())
	if kind := sim.KindOf(err); kind != sim.ErrConfig {
		t.Errorf("batch error: kind %s, want the root cause %s (%v)", kind, sim.ErrConfig, err)
	}
	if len(grid) != 2 || len(grid[1]) != 2 || grid[0][0] != nil {
		t.Errorf("failed grid: want a 2x2 grid with nil failed runs, got %v", grid)
	}
}

// TestRootCausePrefersNonCancellation: a batch reports the failure that
// started a fail-fast collapse, even when a sibling it cancelled comes
// first in input order, and otherwise the first failure.
func TestRootCausePrefersNonCancellation(t *testing.T) {
	cancelled := &sim.SimError{Kind: sim.ErrCancelled, Err: context.Canceled}
	cause := &sim.SimError{Kind: sim.ErrPanic, Err: errors.New("boom")}
	later := &sim.SimError{Kind: sim.ErrConfig, Err: errors.New("bad spec")}
	var err error
	for _, e := range []error{nil, cancelled, nil, cause, later, cancelled} {
		err = rootCause(err, e)
	}
	if err != cause {
		t.Errorf("rootCause picked %v, want %v", err, cause)
	}
	if err := rootCause(nil, cancelled); err != cancelled {
		t.Errorf("an all-cancelled batch reports %v, want the cancellation", err)
	}
}

// TestKeepGoingRunsEverySibling: with KeepGoing one bad config costs
// exactly one result row.
func TestKeepGoingRunsEverySibling(t *testing.T) {
	r := NewRunner(Options{Instructions: 5_000, Workers: 1, KeepGoing: true})
	defer r.Close()
	cfgs := []sim.Config{
		{App: "511.povray", Predictor: "warp-drive"},
		{App: "511.povray", Predictor: "none"},
		{App: "519.lbm", Predictor: "none"},
	}
	results := r.RunConfigsDetailedContext(context.Background(), cfgs)
	if sim.KindOf(results[0].Err) != sim.ErrConfig {
		t.Errorf("results[0]: want config error, got %v", results[0].Err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Err != nil || results[i].Run == nil {
			t.Errorf("results[%d]: keep-going sibling must succeed, got %v", i, results[i].Err)
		}
	}
}

// TestSubmitAfterCloseFailsGracefully is the regression test for the old
// send-on-closed-channel panic: batch APIs on a closed runner return typed
// errors instead of crashing.
func TestSubmitAfterCloseFailsGracefully(t *testing.T) {
	r := NewRunner(Options{Apps: []string{"511.povray"}, Instructions: 5_000})
	if _, err := runOne(r, sim.Config{App: "511.povray", Predictor: "none"}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := r.RunGrid(Space{Predictors: []string{"none"}}.Variants()); !errors.Is(err, errSchedulerClosed) {
		t.Errorf("RunGrid after Close: want errSchedulerClosed, got %v", err)
	}
	cfgs := []sim.Config{{App: "519.lbm", Predictor: "none", Instructions: 5_000}}
	results := r.RunConfigsDetailedContext(context.Background(), cfgs)
	if !errors.Is(results[0].Err, errSchedulerClosed) {
		t.Errorf("RunConfigsDetailedContext after Close: want errSchedulerClosed, got %v", results[0].Err)
	}
	if err := r.ForEachApp(func(int, string) error { return nil }); !errors.Is(err, errSchedulerClosed) {
		t.Errorf("ForEachApp after Close: want errSchedulerClosed, got %v", err)
	}
}

// TestForEachAppIsolatesPanics: a panicking per-app job poisons its own
// app's error, not the process, and fail-fast keeps later queued apps from
// starting.
func TestForEachAppIsolatesPanics(t *testing.T) {
	r := NewRunner(Options{
		Apps: []string{"511.povray", "519.lbm", "541.leela"}, Workers: 1,
	})
	defer r.Close()
	var started int
	err := r.ForEachApp(func(i int, app string) error {
		started++
		panic("injected test panic in app job")
	})
	if err == nil || !strings.Contains(err.Error(), "injected test panic") {
		t.Fatalf("want the recovered panic as the batch error, got %v", err)
	}
	if started != 1 {
		t.Errorf("fail-fast should stop queued apps after the first panic; %d started", started)
	}
}

// TestSIGINTGracefulShutdown drives the cmds' signal path in-process:
// signal.NotifyContext + a real SIGINT cancels in-flight work, later runs
// fail as typed cancellations, and the partial results remain flushable
// (failure log and metrics still render).
func TestSIGINTGracefulShutdown(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r := NewRunner(Options{Instructions: 5_000, Context: ctx})
	defer r.Close()

	// Work completed before the signal stays completed.
	done, err := runOne(r, sim.Config{App: "511.povray", Predictor: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the notify context")
	}

	if _, err := runOne(r, sim.Config{App: "519.lbm", Predictor: "none"}); sim.KindOf(err) != sim.ErrCancelled {
		t.Fatalf("post-signal run: kind %s, want %s (%v)", sim.KindOf(err), sim.ErrCancelled, err)
	}
	if done == nil {
		t.Error("pre-signal result lost")
	}

	var failures, metrics bytes.Buffer
	r.WriteFailures(&failures)
	if !strings.Contains(failures.String(), string(sim.ErrCancelled)) {
		t.Errorf("failure log after SIGINT lacks the cancelled row:\n%s", failures.String())
	}
	r.WriteMetrics(&metrics)
	if !strings.Contains(metrics.String(), "runs.simulated") {
		t.Errorf("metrics must still render after SIGINT:\n%s", metrics.String())
	}
}
