package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/experiments"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Job states. A checkpoint persisted in StateRunning marks work in flight
// when the process died; ResumeAll picks it up on the next boot.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Autotuner counters, published to the shared metrics registry (so job
// progress streams over the daemon's /metrics endpoint next to the cache
// and scheduler counters).
const (
	CounterSubmitted     = "jobs.submitted"
	CounterResumed       = "jobs.resumed"
	CounterCompleted     = "jobs.completed"
	CounterFailed        = "jobs.failed"
	CounterCancelled     = "jobs.cancelled"
	CounterTrials        = "jobs.trials"
	CounterTrialFailures = "jobs.trial_failures"
)

// ErrClosed rejects submissions after Close.
var ErrClosed = errors.New("jobs: controller closed")

// ErrUnknownJob marks a job ID this controller has never seen (HTTP 404).
var ErrUnknownJob = errors.New("jobs: unknown job")

// TenantBusyError is the typed refusal when a tenant already has its cap of
// concurrently active jobs — surfaced instead of silently queueing the new
// job behind them, so the client sees the quota explicitly (HTTP 429
// quota_exceeded) and can retry after one of its jobs finishes.
type TenantBusyError struct {
	Tenant string
	Active int
	Cap    int
}

func (e *TenantBusyError) Error() string {
	return fmt.Sprintf("jobs: tenant %q already has %d active job(s) (cap %d)",
		e.Tenant, e.Active, e.Cap)
}

// Backend executes one rung's trial batch; *experiments.Runner is the
// production implementation (configure it KeepGoing so one bad candidate
// poisons its own trial, not the rung). Trials land in the runner's
// content-addressed cache, which is what makes resumption free.
type Backend interface {
	RunConfigsDetailedContext(ctx context.Context, cfgs []sim.Config) []experiments.Result
}

// Options tune a Controller.
type Options struct {
	// Dir is the checkpoint directory (one JSON file per job, named by job
	// ID, written atomically). Required.
	Dir string
	// Backend runs trial batches. Required.
	Backend Backend
	// Metrics receives the jobs.* counters (default: a private registry).
	Metrics *stats.Metrics
	// Context is the base context of every job; cancelling it stops them
	// mid-rung with their last checkpoint intact (default Background).
	Context context.Context
	// Apps is the default workload list for specs that omit one (default:
	// the whole suite via experiments.Options normalization is NOT applied
	// here — pass the runner's app list).
	Apps []string
	// Instructions is the default full-fidelity stream length for specs
	// that omit one (default sim.DefaultInstructions).
	Instructions int
	// TenantMaxActive caps one tenant's concurrently active (running) jobs;
	// Submit past it fails with *TenantBusyError. 0 = unlimited.
	TenantMaxActive int
	// OnTrial observes every completed rung trial row (the serving layer
	// appends them to the tenant's persistent results log). Called
	// synchronously from the job goroutine, batch order, completed rungs
	// only. Nil = no observer.
	OnTrial func(tenant string, res experiments.Result)
	// Now is the wall-clock hook for the budget check (tests pin it).
	// Default time.Now.
	Now func() time.Time
}

func (o Options) norm() Options {
	if o.Metrics == nil {
		o.Metrics = stats.NewMetrics()
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Instructions == 0 {
		o.Instructions = sim.DefaultInstructions
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Trial is one completed (candidate, rung) evaluation: the per-app run
// cache keys it resolved to and its Muops-weighted IPC score. Trials append
// in planned order — frontier order within each rung — never completion
// order, so the trial log of a spec is byte-identical across fresh,
// cache-warm and kill-resumed executions.
type Trial struct {
	Rung          int      `json:"rung"`
	Candidate     int      `json:"candidate"` // index into Spec.Space.Variants()
	Predictor     string   `json:"predictor"`
	TrainAtDetect bool     `json:"train_at_detect,omitempty"`
	Instructions  int      `json:"instructions"`
	Keys          []string `json:"keys"` // runcache key per app, app order
	Score         float64  `json:"score"`
	Failed        bool     `json:"failed,omitempty"`
	Error         string   `json:"error,omitempty"`
}

// Winner reports the search's best candidate at the highest fidelity it
// reached: its config template (App empty — pass it to `paperfigs -config`
// to reproduce), its score, and the same per-app stats table paperfigs
// renders, byte-for-byte.
type Winner struct {
	Candidate     int        `json:"candidate"`
	Predictor     string     `json:"predictor"`
	TrainAtDetect bool       `json:"train_at_detect,omitempty"`
	Config        sim.Config `json:"config"`
	Score         float64    `json:"score"`
	Table         string     `json:"table"`
}

// checkpoint is the persisted state of one job — everything needed to
// resume after a crash. Written atomically (temp + rename) after every
// rung, so the worst a kill -9 costs is one partially-simulated rung whose
// finished runs the cache still holds.
type checkpoint struct {
	Version         int     `json:"version"`
	ID              string  `json:"id"`
	Tenant          string  `json:"tenant"`
	Spec            Spec    `json:"spec"` // normalized
	State           string  `json:"state"`
	Selected        []int   `json:"selected"`  // candidate indices entering rung 0
	NextRung        int     `json:"next_rung"` // first rung not yet completed
	Frontier        []int   `json:"frontier"`  // candidate indices entering NextRung
	Trials          []Trial `json:"trials,omitempty"`
	ElapsedMS       int64   `json:"elapsed_ms"` // accumulated across process lives
	BudgetExhausted bool    `json:"budget_exhausted,omitempty"`
	Winner          *Winner `json:"winner,omitempty"`
	ResultDigest    string  `json:"result_digest,omitempty"`
	Error           string  `json:"error,omitempty"`
}

const checkpointVersion = 1

// Status is a job's wire view (GET /v1/jobs/{id}).
type Status struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	State    string `json:"state"`
	Strategy string `json:"strategy"`
	// SpaceSize is the full expanded candidate count; Selected how many
	// entered the search under the budget.
	SpaceSize int `json:"space_size"`
	Selected  int `json:"selected"`
	Rungs     int `json:"rungs"`
	NextRung  int `json:"next_rung"`
	// PlannedTrials/PlannedInstructions are the schedule's cost on a cold
	// cache; CompletedTrials tracks progress.
	PlannedTrials       int     `json:"planned_trials"`
	PlannedInstructions int64   `json:"planned_instructions"`
	CompletedTrials     int     `json:"completed_trials"`
	FailedTrials        int     `json:"failed_trials,omitempty"`
	ElapsedMS           int64   `json:"elapsed_ms"`
	Best                *Trial  `json:"best,omitempty"`
	Winner              *Winner `json:"winner,omitempty"`
	ResultDigest        string  `json:"result_digest,omitempty"`
	BudgetExhausted     bool    `json:"budget_exhausted,omitempty"`
	Error               string  `json:"error,omitempty"`
}

// Job is one tracked search. All checkpoint mutations happen under mu; the
// batch execution itself runs outside it.
type Job struct {
	mu     sync.Mutex
	cp     checkpoint
	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{} // closed when the current run goroutine exits
	live   bool          // a run goroutine is active
}

// Controller owns the jobs of one daemon: submission, execution,
// checkpointing, cancellation and resumption.
type Controller struct {
	opt Options

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	onTrial func(tenant string, res experiments.Result)
}

// NewController builds a controller and loads every checkpoint under
// opt.Dir. Loaded jobs are tracked but not executing; call ResumeAll to
// restart the ones that were mid-flight when the previous process died.
func NewController(opt Options) (*Controller, error) {
	opt = opt.norm()
	if opt.Dir == "" {
		return nil, errors.New("jobs: Options.Dir is required")
	}
	if opt.Backend == nil {
		return nil, errors.New("jobs: Options.Backend is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &Controller{
		opt:     opt,
		jobs:    map[string]*Job{},
		onTrial: opt.OnTrial,
	}
	c.baseCtx, c.baseCancel = context.WithCancel(opt.Context)
	// Touch the headline counters so /metrics shows explicit zeros.
	for _, name := range []string{CounterSubmitted, CounterResumed, CounterCompleted,
		CounterFailed, CounterCancelled, CounterTrials} {
		opt.Metrics.Add(name, 0)
	}
	entries, err := os.ReadDir(opt.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(opt.Dir, e.Name()))
		if err != nil {
			continue
		}
		var cp checkpoint
		if err := json.Unmarshal(data, &cp); err != nil || cp.Version != checkpointVersion || !cp.sound() {
			// A torn or foreign file; the atomic write protocol means this
			// is not one of ours — leave it alone and move on.
			continue
		}
		c.jobs[cp.ID] = &Job{cp: cp}
	}
	return c, nil
}

// sound reports whether a loaded checkpoint is one this controller can
// resume: its spec validates and still digests to its ID (a spec naming a
// since-removed field decodes to a different one), and every candidate
// index it holds falls inside the spec's variant list.
func (cp *checkpoint) sound() bool {
	if cp.Spec.Validate() != nil || DigestSpec(cp.Tenant, cp.Spec) != cp.ID {
		return false
	}
	n := len(cp.Spec.Space.Variants())
	idx := append(append([]int(nil), cp.Selected...), cp.Frontier...)
	for _, t := range cp.Trials {
		idx = append(idx, t.Candidate)
	}
	for _, i := range idx {
		if i < 0 || i >= n {
			return false
		}
	}
	return true
}

// SetOnTrial installs the per-trial observer (the serving layer's results-
// log hook). It exists to break the construction cycle with the server —
// call it before ResumeAll or the first Submit.
func (c *Controller) SetOnTrial(fn func(tenant string, res experiments.Result)) {
	c.onTrial = fn
}

// ResumeAll restarts every job whose checkpoint says it was mid-flight.
// The deterministic schedule re-executes from the last completed rung;
// everything already simulated is a run-cache hit, so resumption costs no
// repeat simulations.
func (c *Controller) ResumeAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	resumed := 0
	for _, j := range c.jobs {
		j.mu.Lock()
		if j.cp.State == StateRunning && !j.live {
			c.start(j)
			c.opt.Metrics.Add(CounterResumed, 1)
			resumed++
		}
		j.mu.Unlock()
	}
	return resumed
}

// start launches j's run goroutine. Both c.mu and j.mu must be held.
func (c *Controller) start(j *Job) {
	j.ctx, j.cancel = context.WithCancel(c.baseCtx)
	j.done = make(chan struct{})
	j.live = true
	c.wg.Add(1)
	go c.run(j)
}

// activeJobs counts tenant's running jobs. c.mu must be held; skip is a job
// whose mutex the caller already holds (the job being restarted — it is not
// running, or the caller would not be restarting it).
func (c *Controller) activeJobs(tenant string, skip *Job) int {
	n := 0
	for _, j := range c.jobs {
		if j == skip {
			continue
		}
		j.mu.Lock()
		if j.cp.Tenant == tenant && j.cp.State == StateRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Submit validates, normalizes and digests spec under tenant, and starts
// (or joins) the job. Idempotent by construction: the same tenant
// resubmitting the same spec gets the existing job's status — done jobs
// answer immediately, running jobs attach, and cancelled or failed jobs
// restart from their last checkpoint (with the run cache making redone work
// free). A tenant at its active-job cap gets a typed *TenantBusyError.
func (c *Controller) Submit(tenant string, spec Spec) (*Status, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	norm := spec.Normalized(c.opt.Apps, c.opt.Instructions)
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	id := DigestSpec(tenant, norm)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if j, ok := c.jobs[id]; ok {
		j.mu.Lock()
		defer j.mu.Unlock()
		switch {
		case j.cp.State == StateDone:
			// Terminal success: idempotent replay.
		case j.cp.State == StateRunning && j.live:
			// Already executing: attach.
		default:
			// Cancelled, failed, or loaded-but-not-resumed: restart from the
			// checkpoint under the current tenant cap.
			if cap := c.opt.TenantMaxActive; cap > 0 {
				if n := c.activeJobs(tenant, j); n >= cap {
					return nil, &TenantBusyError{Tenant: tenant, Active: n, Cap: cap}
				}
			}
			j.cp.State = StateRunning
			j.cp.Error = ""
			c.persist(&j.cp)
			c.start(j)
			c.opt.Metrics.Add(CounterResumed, 1)
		}
		return c.statusLocked(j), nil
	}

	if cap := c.opt.TenantMaxActive; cap > 0 {
		if n := c.activeJobs(tenant, nil); n >= cap {
			return nil, &TenantBusyError{Tenant: tenant, Active: n, Cap: cap}
		}
	}
	selected := selectInitial(norm, len(norm.Space.Variants()))
	j := &Job{cp: checkpoint{
		Version:  checkpointVersion,
		ID:       id,
		Tenant:   tenant,
		Spec:     norm,
		State:    StateRunning,
		Selected: selected,
		NextRung: 0,
		Frontier: selected,
	}}
	c.jobs[id] = j
	j.mu.Lock()
	defer j.mu.Unlock()
	c.persist(&j.cp)
	c.start(j)
	c.opt.Metrics.Add(CounterSubmitted, 1)
	return c.statusLocked(j), nil
}

// Get reports a job's status.
func (c *Controller) Get(id string) (*Status, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return c.statusLocked(j), nil
}

// List reports every job's status, newest checkpoint order unspecified;
// tenant filters when non-empty.
func (c *Controller) List(tenant string) []*Status {
	c.mu.Lock()
	jobs := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	out := make([]*Status, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		if tenant == "" || j.cp.Tenant == tenant {
			out = append(out, c.statusLocked(j))
		}
		j.mu.Unlock()
	}
	return out
}

// Cancel stops a running job through its context: in-flight simulations
// receive typed sim.ErrCancelled, the partial rung is discarded, and the
// job lands terminal StateCancelled with its checkpoint intact — a
// resubmission of the same spec resumes from the last completed rung.
// Cancelling a terminal job is a no-op that reports its status.
func (c *Controller) Cancel(id string) (*Status, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cp.State == StateRunning {
		j.cp.State = StateCancelled
		c.persist(&j.cp)
		if j.cancel != nil {
			j.cancel()
		}
		c.opt.Metrics.Add(CounterCancelled, 1)
	}
	return c.statusLocked(j), nil
}

// Wait blocks until the job's current run goroutine exits (immediately for
// jobs that are not executing). Test and drain helper.
func (c *Controller) Wait(id string) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return
	}
	j.mu.Lock()
	done, live := j.done, j.live
	j.mu.Unlock()
	if live && done != nil {
		<-done
	}
}

// Close stops accepting submissions, cancels every running job's context
// and waits for their goroutines. Running jobs keep StateRunning in their
// checkpoints — they are mid-flight work a future process resumes, not
// cancellations.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.baseCancel()
	c.wg.Wait()
}

// statusLocked renders j's wire view. j.mu must be held.
func (c *Controller) statusLocked(j *Job) *Status {
	cp := &j.cp
	plan := planRungs(cp.Spec, len(cp.Selected))
	planned := 0
	for _, r := range plan {
		planned += r.Count
	}
	st := &Status{
		ID:                  cp.ID,
		Tenant:              cp.Tenant,
		State:               cp.State,
		Strategy:            cp.Spec.Strategy,
		SpaceSize:           len(cp.Spec.Space.Variants()),
		Selected:            len(cp.Selected),
		Rungs:               len(plan),
		NextRung:            cp.NextRung,
		PlannedTrials:       planned,
		PlannedInstructions: planCost(plan, len(cp.Spec.Apps)),
		CompletedTrials:     len(cp.Trials),
		ElapsedMS:           cp.ElapsedMS,
		Winner:              cp.Winner,
		ResultDigest:        cp.ResultDigest,
		BudgetExhausted:     cp.BudgetExhausted,
		Error:               cp.Error,
	}
	for i := range cp.Trials {
		if cp.Trials[i].Failed {
			st.FailedTrials++
		}
	}
	if best := bestTrial(cp.Trials); best != nil {
		b := *best
		st.Best = &b
	}
	return st
}

// bestTrial picks the best successful trial so far: highest rung (fidelity
// dominates — a cheap-rung score is not comparable to a full-fidelity one),
// then score, then the lower candidate index.
func bestTrial(trials []Trial) *Trial {
	var best *Trial
	for i := range trials {
		t := &trials[i]
		if t.Failed {
			continue
		}
		switch {
		case best == nil,
			t.Rung > best.Rung,
			t.Rung == best.Rung && t.Score > best.Score,
			t.Rung == best.Rung && t.Score == best.Score && t.Candidate < best.Candidate:
			best = t
		}
	}
	return best
}

// persist writes cp to <id>.json through atomicfile.Write, so a torn write
// can never be observed under the final name. Best-effort:
// checkpointing must not fail the job the work already succeeded for; a
// full disk costs resumability, not results.
func (c *Controller) persist(cp *checkpoint) {
	data, err := json.MarshalIndent(cp, "", "\t")
	if err != nil {
		return
	}
	_ = atomicfile.Write(filepath.Join(c.opt.Dir, cp.ID+".json"), append(data, '\n'))
}

// run executes j's deterministic schedule from its checkpoint: one batch
// per rung through the backend (under the owning tenant's weighted-fair
// share), trials appended in planned order, a checkpoint after every rung,
// then winner selection and rendering. Exits without touching the
// checkpoint when the context dies mid-rung — the partial rung's finished
// simulations stay in the run cache, so the resume pays nothing twice.
func (c *Controller) run(j *Job) {
	defer c.wg.Done()
	defer func() {
		j.mu.Lock()
		j.live = false
		close(j.done)
		j.mu.Unlock()
	}()

	j.mu.Lock()
	spec := j.cp.Spec
	tenant := j.cp.Tenant
	next := j.cp.NextRung
	baseElapsed := time.Duration(j.cp.ElapsedMS) * time.Millisecond
	j.mu.Unlock()

	cands := spec.Space.Variants()
	plan := planRungs(spec, lenSelected(j))
	started := c.opt.Now()
	elapsed := func() time.Duration { return baseElapsed + c.opt.Now().Sub(started) }
	ctx := experiments.WithTenant(j.ctx, tenant)

	for r := next; r < len(plan); r++ {
		j.mu.Lock()
		frontier := append([]int(nil), j.cp.Frontier...)
		j.mu.Unlock()
		if len(frontier) == 0 {
			c.fail(j, "no viable candidates: every trial of the previous rung failed")
			return
		}
		if wall := spec.Budget.WallClockMS; wall > 0 && elapsed().Milliseconds() > wall {
			if best := c.snapshotBest(j); best != nil {
				c.finish(j, spec, cands, best, true, elapsed())
			} else {
				c.fail(j, "wall-clock budget exhausted before any completed rung")
			}
			return
		}

		insts := plan[r].Instructions
		cfgs := make([]sim.Config, 0, len(frontier)*len(spec.Apps))
		for _, ci := range frontier {
			for _, app := range spec.Apps {
				cfgs = append(cfgs, spec.Config(cands[ci], app, insts))
			}
		}
		results := c.opt.Backend.RunConfigsDetailedContext(ctx, cfgs)
		if j.ctx.Err() != nil {
			// Cancelled (terminal state already persisted by Cancel) or the
			// controller is closing (checkpoint stays StateRunning for the
			// next process). Discard the partial rung either way.
			c.saveElapsed(j, elapsed())
			return
		}
		if fn := c.onTrial; fn != nil {
			for _, res := range results {
				fn(tenant, res)
			}
		}

		trials := make([]Trial, 0, len(frontier))
		scored := make([]trialScore, 0, len(frontier))
		failures := 0
		for i, ci := range frontier {
			rows := results[i*len(spec.Apps) : (i+1)*len(spec.Apps)]
			t := Trial{
				Rung:          r,
				Candidate:     ci,
				Predictor:     cands[ci].Predictor,
				TrainAtDetect: cands[ci].TrainAtDetect,
				Instructions:  insts,
				Keys:          make([]string, len(rows)),
			}
			runs := make([]*stats.Run, len(rows))
			for k, row := range rows {
				t.Keys[k] = runcache.Key(row.Config.Normalized())
				runs[k] = row.Run
				if row.Err != nil && !t.Failed {
					t.Failed = true
					t.Error = firstLine(row.Err.Error())
				}
			}
			if !t.Failed {
				t.Score = experiments.MuopsWeightedIPC(runs)
			} else {
				failures++
			}
			trials = append(trials, t)
			scored = append(scored, trialScore{cand: ci, score: t.Score, failed: t.Failed})
		}
		c.opt.Metrics.Add(CounterTrials, uint64(len(trials)))
		c.opt.Metrics.Add(CounterTrialFailures, uint64(failures))

		var nextFrontier []int
		if r+1 < len(plan) {
			nextFrontier = promote(scored, plan[r+1].Count)
		}

		j.mu.Lock()
		if j.cp.State != StateRunning {
			j.mu.Unlock()
			return
		}
		j.cp.Trials = append(j.cp.Trials, trials...)
		j.cp.NextRung = r + 1
		j.cp.Frontier = nextFrontier
		j.cp.ElapsedMS = elapsed().Milliseconds()
		c.persist(&j.cp)
		j.mu.Unlock()
	}

	best := c.snapshotBest(j)
	if best == nil {
		c.fail(j, "every candidate failed at the final rung")
		return
	}
	c.finish(j, spec, cands, best, false, elapsed())
}

func lenSelected(j *Job) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cp.Selected)
}

// snapshotBest returns a copy of the job's best successful trial, nil when
// none exists yet.
func (c *Controller) snapshotBest(j *Job) *Trial {
	j.mu.Lock()
	defer j.mu.Unlock()
	best := bestTrial(j.cp.Trials)
	if best == nil {
		return nil
	}
	b := *best
	return &b
}

// finish renders the winner — the same per-app runs the winning trial
// scored, recalled from the cache, through the same table renderer
// paperfigs uses — and lands the job StateDone with its result digest.
func (c *Controller) finish(j *Job, spec Spec, cands []sim.Config, best *Trial, exhausted bool, elapsed time.Duration) {
	cand := cands[best.Candidate]
	cfgs := make([]sim.Config, len(spec.Apps))
	for i, app := range spec.Apps {
		cfgs[i] = spec.Config(cand, app, best.Instructions)
	}
	ctx := experiments.WithTenant(j.ctx, j.cp.Tenant)
	results := c.opt.Backend.RunConfigsDetailedContext(ctx, cfgs)
	if j.ctx.Err() != nil {
		c.saveElapsed(j, elapsed)
		return
	}
	runs := make([]*stats.Run, len(results))
	for i, res := range results {
		if res.Err != nil {
			c.fail(j, "winner rendering failed: "+firstLine(res.Err.Error()))
			return
		}
		runs[i] = res.Run
	}
	tmpl := spec.Config(cand, "", best.Instructions).Normalized()
	table := experiments.ConfigTable(tmpl, spec.Apps, runs).String()

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cp.State != StateRunning {
		return
	}
	j.cp.State = StateDone
	j.cp.BudgetExhausted = exhausted
	j.cp.Winner = &Winner{
		Candidate:     best.Candidate,
		Predictor:     cand.Predictor,
		TrainAtDetect: cand.TrainAtDetect,
		Config:        tmpl,
		Score:         best.Score,
		Table:         table,
	}
	j.cp.ResultDigest = resultDigest(j.cp.ID, j.cp.Trials, table)
	j.cp.ElapsedMS = elapsed.Milliseconds()
	c.persist(&j.cp)
	c.opt.Metrics.Add(CounterCompleted, 1)
}

// fail lands the job terminal StateFailed (unless already terminal).
func (c *Controller) fail(j *Job, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cp.State != StateRunning {
		return
	}
	j.cp.State = StateFailed
	j.cp.Error = msg
	c.persist(&j.cp)
	c.opt.Metrics.Add(CounterFailed, 1)
}

// saveElapsed persists accumulated wall time on an interrupted exit so the
// wall-clock budget spans process lives.
func (c *Controller) saveElapsed(j *Job, elapsed time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cp.ElapsedMS = elapsed.Milliseconds()
	c.persist(&j.cp)
}

// resultDigest fingerprints a finished search: the job identity, the full
// trial log and the winner table. Byte-identical across a fresh run, a
// cache-warm rerun and a kill-and-resume run of the same spec — the
// determinism contract the regression tests pin.
func resultDigest(id string, trials []Trial, table string) string {
	blob, err := json.Marshal(trials)
	if err != nil {
		return ""
	}
	h := sha256.New()
	h.Write([]byte("phast-jobresult/v1\n"))
	h.Write([]byte(id))
	h.Write([]byte{'\n'})
	h.Write(blob)
	h.Write([]byte{'\n'})
	h.Write([]byte(table))
	return hex.EncodeToString(h.Sum(nil))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}
