package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSchedulerSaturationBlocksNotDrops pins the scheduler's backpressure
// contract: with every worker busy, submit blocks the caller (bounded
// memory, no internal queue growth) instead of dropping or erroring the
// job, and the blocked submit completes once a worker frees. Run under
// -race (make check does).
func TestSchedulerSaturationBlocksNotDrops(t *testing.T) {
	s := newScheduler(2)
	defer s.close()
	gate := make(chan struct{})
	var done atomic.Int32
	// Saturate both workers.
	for i := 0; i < 2; i++ {
		if err := s.submitCtx(context.Background(), DefaultTenant, func() { <-gate; done.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	// The third submit must block — not return, not drop the job.
	third := make(chan error, 1)
	go func() { third <- s.submitCtx(context.Background(), DefaultTenant, func() { done.Add(1) }) }()
	select {
	case err := <-third:
		t.Fatalf("submit returned (%v) while the pool was saturated; it must block", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	if err := <-third; err != nil {
		t.Fatalf("blocked submit failed after a worker freed: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for done.Load() != 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := done.Load(); got != 3 {
		t.Fatalf("%d of 3 accepted jobs ran — work was dropped", got)
	}
}

// TestSchedulerDrainOnCloseCompletesAccepted: every job accepted before
// close runs to completion; close never abandons handed-off work.
func TestSchedulerDrainOnCloseCompletesAccepted(t *testing.T) {
	s := newScheduler(3)
	const jobs = 50
	var done atomic.Int32
	var wg sync.WaitGroup
	accepted := 0
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		err := s.submitCtx(context.Background(), DefaultTenant, func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			done.Add(1)
		})
		if err != nil {
			wg.Done()
			t.Fatalf("job %d: %v", i, err)
		}
		accepted++
	}
	s.close()
	wg.Wait()
	if got := done.Load(); got != int32(accepted) {
		t.Fatalf("close drained %d of %d accepted jobs", got, accepted)
	}
	if err := s.submitCtx(context.Background(), DefaultTenant, func() {}); err == nil {
		t.Fatal("submit after close must fail, not enqueue")
	}
}

// TestRunnerCloseMidBatchLosesNoConfig: closing a runner racing a batch is
// the serving layer's shutdown path — every config must still produce an
// outcome (a completed run or a typed scheduler-closed error), never a
// silently missing row.
func TestRunnerCloseMidBatchLosesNoConfig(t *testing.T) {
	r := NewRunner(Options{Instructions: 5_000, Workers: 2, KeepGoing: true})
	cfgs := make([]sim.Config, 12)
	for i := range cfgs {
		cfgs[i] = sim.Config{App: "511.povray", Predictor: "none", Instructions: 5_000, Seed: int64(i + 1)}
	}
	resultsCh := make(chan []Result, 1)
	go func() { resultsCh <- r.RunConfigsDetailedContext(context.Background(), cfgs) }()
	time.Sleep(5 * time.Millisecond) // let some configs land in the pool
	r.Close()
	results := <-resultsCh
	if len(results) != len(cfgs) {
		t.Fatalf("%d rows for %d configs", len(results), len(cfgs))
	}
	var ran, refused int
	for i, res := range results {
		switch {
		case res.Err == nil && res.Run != nil:
			ran++
		case errors.Is(res.Err, errSchedulerClosed):
			refused++
		default:
			t.Errorf("config %d: unexpected outcome run=%v err=%v", i, res.Run, res.Err)
		}
	}
	if ran+refused != len(cfgs) {
		t.Fatalf("accounted for %d of %d configs", ran+refused, len(cfgs))
	}
	t.Logf("close mid-batch: %d ran, %d refused with typed errors", ran, refused)
}
