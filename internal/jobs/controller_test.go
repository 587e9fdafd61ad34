package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeBackend is a deterministic, simulation-free Backend: every config
// scores by a stable hash of its predictor spec, so searches resolve the
// same winner on every run without touching the simulator. An optional gate
// holds batches open (cancel/cap tests); an optional failPred makes one
// candidate's rows fail.
type fakeBackend struct {
	mu       sync.Mutex
	batches  int
	rows     int
	gate     chan struct{} // nil = never block
	entered  chan struct{} // signalled once per batch when it starts
	failPred string        // rows with this predictor fail
}

func (b *fakeBackend) RunConfigsDetailedContext(ctx context.Context, cfgs []sim.Config) []experiments.Result {
	b.mu.Lock()
	b.batches++
	b.rows += len(cfgs)
	entered, gate := b.entered, b.gate
	b.mu.Unlock()
	if entered != nil {
		select {
		case entered <- struct{}{}:
		default:
		}
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	out := make([]experiments.Result, len(cfgs))
	for i, cfg := range cfgs {
		cfg = cfg.Normalized()
		out[i].Config = cfg
		if ctx.Err() != nil {
			out[i].Err = &sim.SimError{Kind: sim.ErrCancelled, Config: cfg, Err: ctx.Err()}
			continue
		}
		if b.failPred != "" && cfg.Predictor == b.failPred {
			out[i].Err = &sim.SimError{Kind: sim.ErrConfig, Config: cfg, Err: errors.New("fake failure")}
			continue
		}
		h := fnv.New32a()
		h.Write([]byte(cfg.Predictor))
		// Committed = instructions; cycles derived from the predictor hash,
		// so scores are distinct, stable, and fidelity-independent.
		out[i].Run = &stats.Run{
			Committed: uint64(cfg.Instructions),
			Cycles:    uint64(cfg.Instructions) * uint64(100+h.Sum32()%100) / 100,
		}
	}
	return out
}

func (b *fakeBackend) stats() (batches, rows int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches, b.rows
}

func testController(t *testing.T, b Backend, opt Options) *Controller {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	opt.Backend = b
	if len(opt.Apps) == 0 {
		opt.Apps = []string{"511.povray", "541.leela"}
	}
	if opt.Instructions == 0 {
		opt.Instructions = 8000
	}
	c, err := NewController(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func testSpec() Spec {
	return Spec{
		Space:        experiments.Space{Predictors: []string{"phast-tables:1", "phast-tables:2", "phast-tables:4", "phast-tables:8"}},
		Strategy:     "halving",
		Halving:      Halving{Eta: 2, Rungs: 2, MinInstructions: 2000},
		Instructions: 8000,
	}
}

// waitDone blocks until the job goroutine exits and returns the final
// status.
func waitDone(t *testing.T, c *Controller, id string) *Status {
	t.Helper()
	c.Wait(id)
	st, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJobCompletes runs a halving search to completion on the fake backend
// and checks the schedule arithmetic, winner selection and digest.
func TestJobCompletes(t *testing.T) {
	b := &fakeBackend{}
	c := testController(t, b, Options{})
	st, err := c.Submit("acme", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.PlannedTrials != 6 || st.Rungs != 2 || st.Selected != 4 {
		t.Fatalf("planned = %+v", st)
	}
	st = waitDone(t, c, st.ID)
	if st.State != StateDone {
		t.Fatalf("state %s (error %q)", st.State, st.Error)
	}
	if st.CompletedTrials != 6 || st.FailedTrials != 0 {
		t.Fatalf("trials = %d/%d failed", st.CompletedTrials, st.FailedTrials)
	}
	if st.Winner == nil || st.Winner.Table == "" || st.ResultDigest == "" {
		t.Fatalf("winner missing: %+v", st)
	}
	// The winner must be one of the two final-rung survivors at full
	// fidelity, and Best must agree with it.
	if st.Best == nil || st.Best.Rung != 1 || st.Best.Candidate != st.Winner.Candidate {
		t.Fatalf("best %+v vs winner %+v", st.Best, st.Winner)
	}
	// Rung batches (2) + the winner's table re-render (1).
	if batches, rows := b.stats(); batches != 3 || rows != (4+2)*2+2 {
		t.Fatalf("backend saw %d batches / %d rows", batches, rows)
	}
}

// TestJobDeterministicAcrossControllers pins the regression contract: same
// spec + seed resolve to byte-identical winner table and result digest on a
// fresh controller, and an idempotent resubmission joins the finished job
// without any new backend work.
func TestJobDeterministicAcrossControllers(t *testing.T) {
	b1 := &fakeBackend{}
	c1 := testController(t, b1, Options{})
	st1, err := c1.Submit("acme", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st1 = waitDone(t, c1, st1.ID)

	b2 := &fakeBackend{}
	c2 := testController(t, b2, Options{})
	st2, err := c2.Submit("acme", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, c2, st2.ID)

	if st1.ID != st2.ID {
		t.Fatalf("same spec, different IDs: %s vs %s", st1.ID, st2.ID)
	}
	if st1.ResultDigest != st2.ResultDigest {
		t.Fatalf("result digests differ: %s vs %s", st1.ResultDigest, st2.ResultDigest)
	}
	if st1.Winner.Table != st2.Winner.Table {
		t.Fatalf("winner tables differ:\n%s\nvs\n%s", st1.Winner.Table, st2.Winner.Table)
	}

	// Idempotent resubmission: same job, no new work.
	before, _ := b1.stats()
	st3, err := c1.Submit("acme", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID != st1.ID || st3.State != StateDone {
		t.Fatalf("resubmit = %+v", st3)
	}
	if after, _ := b1.stats(); after != before {
		t.Fatalf("resubmission re-ran the search (%d -> %d batches)", before, after)
	}
}

// TestJobResume kills the controller mid-search (between rungs) and resumes
// it from the checkpoint with a fresh controller: the job completes with
// the same digest a straight-through run produces, and the resumed run only
// executes the rungs the first life had not finished.
func TestJobResume(t *testing.T) {
	// Reference digest from an uninterrupted run.
	ref := waitDoneSubmit(t, testController(t, &fakeBackend{}, Options{}), "acme", testSpec())

	dir := t.TempDir()
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	b1 := &fakeBackend{gate: gate, entered: entered}
	c1 := testController(t, b1, Options{Dir: dir})
	st, err := c1.Submit("acme", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	<-entered            // rung 0 batch started
	gate <- struct{}{}   // let rung 0 finish
	<-entered            // rung 1 batch started; rung 0 checkpoint is on disk
	c1.Close()           // "kill": cancels rung 1 mid-batch, checkpoint survives
	st, err = c1.Get(id) // still running on disk — mid-flight work
	if err != nil || st.State != StateRunning || st.NextRung != 1 {
		t.Fatalf("post-close status = %+v, err %v", st, err)
	}

	b2 := &fakeBackend{}
	c2 := testController(t, b2, Options{Dir: dir})
	if n := c2.ResumeAll(); n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	st = waitDone(t, c2, id)
	if st.State != StateDone {
		t.Fatalf("resumed job state %s (error %q)", st.State, st.Error)
	}
	if st.ResultDigest != ref.ResultDigest || st.Winner.Table != ref.Winner.Table {
		t.Fatalf("resumed run diverged from reference:\n%s\nvs\n%s", st.ResultDigest, ref.ResultDigest)
	}
	// The second life only ran rung 1 (2 candidates × 2 apps) and the
	// winner render (2 rows) — rung 0 came from the checkpoint.
	if _, rows := b2.stats(); rows != 2*2+2 {
		t.Fatalf("resumed life executed %d rows, want 6", rows)
	}
}

// TestUnsoundCheckpointsSkipped loads checkpoints that a resume could not
// run: specs naming the removed phast_sets/phast_tables axes (written before
// the space became a predictor list) and candidate indices outside the
// spec's variants. NewController skips each, as it skips a torn file, so
// ResumeAll neither panics nor resumes them; a sound checkpoint beside them
// still resumes.
func TestUnsoundCheckpointsSkipped(t *testing.T) {
	dir := t.TempDir()
	norm := testSpec().Normalized([]string{"511.povray", "541.leela"}, 8000)
	write := func(id string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, id+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	running := func(tenant string, edit func(*checkpoint)) string {
		cp := checkpoint{Version: checkpointVersion, ID: DigestSpec(tenant, norm), Tenant: tenant,
			Spec: norm, State: StateRunning, Selected: []int{0, 1, 2, 3}, Frontier: []int{0, 1, 2, 3}}
		edit(&cp)
		data, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		write(cp.ID, data)
		return cp.ID
	}
	old := func(id, space string) string {
		write(id, []byte(`{"version":1,"id":"`+id+`","tenant":"acme","spec":{"space":`+space+
			`,"strategy":"halving","halving":{"eta":2,"rungs":2,"min_instructions":2000},`+
			`"apps":["511.povray"],"machine":"alderlake","instructions":8000},`+
			`"state":"running","selected":[0,1,2,3],"next_rung":1,"frontier":[2,3]}`))
		return id
	}
	unsound := []string{
		old(strings.Repeat("a", 64), `{"phast_tables":[1,2,4,8],"train_at_detect":[false]}`),
		old(strings.Repeat("b", 64), `{"predictors":["storesets"],"phast_sets":[64,256,1024],"train_at_detect":[false]}`),
		running("frontier", func(cp *checkpoint) { cp.NextRung, cp.Frontier = 1, []int{7} }),
		running("selected", func(cp *checkpoint) { cp.Selected = []int{-1} }),
		running("trials", func(cp *checkpoint) { cp.Trials = []Trial{{Candidate: 4}} }),
	}
	sound := running("sound", func(*checkpoint) {})

	c := testController(t, &fakeBackend{}, Options{Dir: dir})
	if n := c.ResumeAll(); n != 1 {
		t.Fatalf("resumed %d jobs, want only the sound one", n)
	}
	for _, id := range unsound {
		if _, err := c.Get(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("unsound checkpoint %s.. loaded (err %v)", id[:8], err)
		}
	}
	if st := waitDone(t, c, sound); st.State != StateDone {
		t.Fatalf("sound checkpoint ended %s (error %q)", st.State, st.Error)
	}
}

func waitDoneSubmit(t *testing.T, c *Controller, tenant string, spec Spec) *Status {
	t.Helper()
	st, err := c.Submit(tenant, spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, c, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s (error %q)", st.State, st.Error)
	}
	return st
}

// TestCancelThenResubmitResumes: DELETE-style cancellation lands the job
// terminal with its checkpoint intact; resubmitting the same spec restarts
// it from that checkpoint and completes.
func TestCancelThenResubmitResumes(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	b := &fakeBackend{gate: gate, entered: entered}
	c := testController(t, b, Options{})
	st, err := c.Submit("acme", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	<-entered
	gate <- struct{}{} // rung 0 done
	<-entered          // rung 1 in flight
	st, err = c.Cancel(id)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("cancel = %+v, err %v", st, err)
	}
	c.Wait(id)

	// The fake keeps answering; drain the gate so the restarted run flows.
	b.mu.Lock()
	b.gate = nil
	b.mu.Unlock()
	st, err = c.Submit("acme", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, c, id)
	if st.State != StateDone {
		t.Fatalf("restarted job state %s (error %q)", st.State, st.Error)
	}
	if st.NextRung != 2 || st.CompletedTrials != 6 {
		t.Fatalf("restarted job progress = %+v", st)
	}
	// Cancelling a terminal job is a no-op.
	st, err = c.Cancel(id)
	if err != nil || st.State != StateDone {
		t.Fatalf("cancel-after-done = %+v, err %v", st, err)
	}
}

// TestTenantMaxActive is the satellite-fix table test: the submit path must
// refuse — with a typed *TenantBusyError carrying the boundary numbers —
// exactly when the tenant sits at the cap, and stay independent across
// tenants.
func TestTenantMaxActive(t *testing.T) {
	specN := func(n int) Spec { // distinct specs → distinct jobs
		s := testSpec()
		s.Seed = int64(n)
		return s
	}
	gate := make(chan struct{})
	b := &fakeBackend{gate: gate}
	c := testController(t, b, Options{TenantMaxActive: 2})

	cases := []struct {
		name    string
		tenant  string
		spec    Spec
		wantErr bool
	}{
		{"first job admitted", "acme", specN(1), false},
		{"second job admitted (at cap)", "acme", specN(2), false},
		{"third job refused (past cap)", "acme", specN(3), true},
		{"other tenant unaffected", "zeta", specN(1), false},
	}
	var ids []string
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := c.Submit(tc.tenant, tc.spec)
			if tc.wantErr {
				var tbe *TenantBusyError
				if !errors.As(err, &tbe) {
					t.Fatalf("err = %v, want *TenantBusyError", err)
				}
				if tbe.Tenant != tc.tenant || tbe.Active != 2 || tbe.Cap != 2 {
					t.Fatalf("boundary numbers wrong: %+v", tbe)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		})
	}
	// Resubmitting an already-running job joins it — never a cap error.
	if _, err := c.Submit("acme", specN(1)); err != nil {
		t.Fatalf("rejoin hit the cap: %v", err)
	}
	// Capacity frees when a job finishes.
	b.mu.Lock()
	b.gate = nil
	b.mu.Unlock()
	close(gate)
	for _, id := range ids {
		c.Wait(id)
	}
	if _, err := c.Submit("acme", specN(3)); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestJobFailures: a candidate whose rows fail is never promoted and never
// wins; if every candidate fails the job lands failed with a message.
func TestJobFailures(t *testing.T) {
	spec := Spec{
		Space:        experiments.Space{Predictors: []string{"storesets", "nosq"}},
		Instructions: 8000,
	}
	b := &fakeBackend{failPred: "storesets"}
	c := testController(t, b, Options{})
	st, err := c.Submit("acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, c, st.ID)
	if st.State != StateDone || st.FailedTrials != 1 {
		t.Fatalf("state %s, failed %d (error %q)", st.State, st.FailedTrials, st.Error)
	}
	if st.Winner.Predictor != "nosq" {
		t.Fatalf("winner = %+v, want nosq", st.Winner)
	}

	all := &fakeBackend{failPred: "nosq"}
	c2 := testController(t, all, Options{})
	st2, err := c2.Submit("acme", Spec{Space: experiments.Space{Predictors: []string{"nosq"}}, Instructions: 8000})
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, c2, st2.ID)
	if st2.State != StateFailed || st2.Error == "" {
		t.Fatalf("all-failed job = %+v", st2)
	}
}

// TestWallClockBudget: a job over its wall budget finishes between rungs as
// done + budget_exhausted, with the best trial so far as winner.
func TestWallClockBudget(t *testing.T) {
	var now struct {
		sync.Mutex
		t time.Time
	}
	now.t = time.Unix(1000, 0)
	spec := testSpec()
	// Each look at the clock jumps it 10s, so the budget check before rung 0
	// sees 10s elapsed and the one before rung 1 sees 30s: a 15s budget lets
	// rung 0 run and stops the search at rung 1.
	spec.Budget.WallClockMS = 15_000
	b := &fakeBackend{}
	c := testController(t, b, Options{
		Now: func() time.Time {
			now.Lock()
			defer now.Unlock()
			now.t = now.t.Add(10 * time.Second)
			return now.t
		},
	})
	st, err := c.Submit("acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, c, st.ID)
	if st.State != StateDone || !st.BudgetExhausted {
		t.Fatalf("budget-exhausted job = %+v", st)
	}
	// Only rung 0 ran; the winner is its best trial at rung-0 fidelity.
	if st.CompletedTrials != 4 || st.Winner == nil || st.Best.Rung != 0 {
		t.Fatalf("budget stop progress = %+v", st)
	}
	if st.ElapsedMS <= spec.Budget.WallClockMS {
		t.Fatalf("elapsed %dms not past the budget", st.ElapsedMS)
	}
}

// TestUnknownJob: Get and Cancel on an unknown ID return ErrUnknownJob.
func TestUnknownJob(t *testing.T) {
	c := testController(t, &fakeBackend{}, Options{})
	if _, err := c.Get("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get err = %v", err)
	}
	if _, err := c.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel err = %v", err)
	}
}

// TestListFilters: List("") sees every job, List(tenant) only that
// tenant's.
func TestListFilters(t *testing.T) {
	b := &fakeBackend{}
	c := testController(t, b, Options{})
	a := waitDoneSubmit(t, c, "acme", testSpec())
	z := waitDoneSubmit(t, c, "zeta", testSpec())
	if a.ID == z.ID {
		t.Fatalf("tenants share a job ID")
	}
	if got := len(c.List("")); got != 2 {
		t.Fatalf("List() = %d jobs", got)
	}
	if got := c.List("acme"); len(got) != 1 || got[0].ID != a.ID {
		t.Fatalf("List(acme) = %+v", got)
	}
}

// TestOnTrialObserver: every completed rung row reaches the observer under
// the submitting tenant, in batch order — the hook the server's results log
// rides.
func TestOnTrialObserver(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []string
	)
	b := &fakeBackend{}
	c := testController(t, b, Options{OnTrial: func(tenant string, res experiments.Result) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, fmt.Sprintf("%s/%s/%s/%d", tenant, res.Config.App, res.Config.Predictor, res.Config.Instructions))
	}})
	waitDoneSubmit(t, c, "acme", testSpec())
	mu.Lock()
	defer mu.Unlock()
	// 4 candidates × 2 apps at rung 0 + 2 × 2 at rung 1; the winner
	// re-render is not a trial and must not reach the observer.
	if len(seen) != 12 {
		t.Fatalf("observer saw %d rows, want 12: %v", len(seen), seen)
	}
	if seen[0] != "acme/511.povray/phast-tables:1/4000" {
		t.Fatalf("first row = %s", seen[0])
	}
}
