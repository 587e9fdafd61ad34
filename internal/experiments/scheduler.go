package experiments

import (
	"context"
	"errors"
	"log"
	"runtime/debug"
	"sync"

	"repro/internal/stats"
)

// errSchedulerClosed is returned by submitCtx after close; batch APIs surface
// it as the per-job error rather than panicking the caller.
var errSchedulerClosed = errors.New("experiments: runner is closed")

// scheduler is the fixed-size worker pool shared by every figure a Runner
// regenerates and every request the serving layer admits. All fan-out
// (RunGrid, ForEachApp, HTTP batches) feeds one pool,
// so app-level parallelism is bounded globally rather than per call site.
//
// Scheduling is weighted-fair across tenants. Each waiting job carries a
// tenant identity (WithTenant / TenantFrom); a free worker serves the
// tenant with the lowest in-service-to-weight ratio, breaking ties in
// favour of the least recently served. Two saturating tenants of equal
// weight therefore split the workers evenly, a weight-2 tenant gets twice
// the share of a weight-1 tenant, and — the property the single FIFO this
// replaces lacked — a light tenant's occasional job is served next, not
// behind a heavy tenant's thousand queued siblings.
//
// Handoff is direct: there is no internal job buffer. submitCtx blocks its
// caller until a worker takes the job (bounded memory, backpressure to the
// submitter — the contract TestSchedulerSaturationBlocksNotDrops pins), and
// abandons the wait when its context ends, removing the queued job so a
// cancelled tenant batch frees its queue share immediately.
type scheduler struct {
	workers int
	// weights maps tenant -> scheduling weight; absent or non-positive
	// means 1. Set before first submit.
	weights map[string]int
	// metrics, when set, receives per-tenant served-job counters.
	metrics *stats.Metrics

	startOnce sync.Once

	mu       sync.Mutex
	cond     *sync.Cond // signalled when a waiter arrives or the pool closes
	closed   bool
	serveSeq uint64 // global service clock for least-recently-served ties
	tenants  map[string]*tenantState
}

// waiter is one blocked submit: the job and the handoff channel its
// submitter waits on. accepted is closed (under the scheduler lock) by the
// worker that takes the job.
type waiter struct {
	tenant   string
	job      func()
	accepted chan struct{}
}

// tenantState is one tenant's queue share: its waiting jobs in FIFO order
// and how many of the pool's workers it currently occupies.
type tenantState struct {
	waiters    []*waiter
	inService  int
	lastServed uint64
}

func newScheduler(workers int) *scheduler {
	s := &scheduler{workers: workers, tenants: map[string]*tenantState{}}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// weight returns a tenant's configured scheduling weight (default 1).
func (s *scheduler) weight(tenant string) int {
	if w, ok := s.weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// start spins up the workers; deferred to first submit so runners that
// never fan out cost nothing.
func (s *scheduler) start() {
	for i := 0; i < s.workers; i++ {
		go func() {
			for {
				w := s.take()
				if w == nil {
					return
				}
				runJob(w.job)
				s.finish(w.tenant)
			}
		}()
	}
}

// runJob is the worker-level panic backstop: batch APIs recover their own
// jobs' panics into per-config errors, so anything reaching here escaped a
// job's own recovery (e.g. a panicking deferred wg.Done). Losing one worker
// to it would shrink the pool for the rest of the process; log and survive.
func runJob(job func()) {
	defer func() {
		if v := recover(); v != nil {
			log.Printf("experiments: scheduled job panicked past its own recovery: %v\n%s", v, debug.Stack())
		}
	}()
	job()
}

// take blocks until a job is available (returning the fairest pick) or the
// pool is closed and fully drained (returning nil — the worker exits).
func (s *scheduler) take() *waiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if w := s.pickLocked(); w != nil {
			return w
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// pickLocked pops the next job under the weighted-fair policy: the waiting
// tenant with the lowest inService/weight ratio, least-recently-served on
// ties. Returns nil when no tenant has waiters.
func (s *scheduler) pickLocked() *waiter {
	var best *tenantState
	var bestName string
	for name, q := range s.tenants {
		if len(q.waiters) == 0 {
			continue
		}
		if best == nil || lessLoaded(q, s.weight(name), best, s.weight(bestName)) {
			best, bestName = q, name
		}
	}
	if best == nil {
		return nil
	}
	w := best.waiters[0]
	best.waiters = best.waiters[1:]
	best.inService++
	s.serveSeq++
	best.lastServed = s.serveSeq
	close(w.accepted)
	if s.metrics != nil {
		s.metrics.Add(stats.TenantCounter(bestName, "jobs"), 1)
	}
	return w
}

// lessLoaded reports whether tenant a (weight wa) should be served before
// tenant b (weight wb): lower inService-per-weight first, least recently
// served on exact ties. Cross-multiplied to stay in integers.
func lessLoaded(a *tenantState, wa int, b *tenantState, wb int) bool {
	la, lb := a.inService*wb, b.inService*wa
	if la != lb {
		return la < lb
	}
	return a.lastServed < b.lastServed
}

// finish returns a worker slot from a tenant, garbage-collecting idle
// tenant state so a long-lived runner does not accumulate every tenant it
// ever served.
func (s *scheduler) finish(tenant string) {
	s.mu.Lock()
	if q := s.tenants[tenant]; q != nil {
		q.inService--
		if q.inService == 0 && len(q.waiters) == 0 {
			delete(s.tenants, tenant)
		}
	}
	s.mu.Unlock()
}

// submitCtx blocks until a worker accepts the job on tenant's queue share
// (the default tenant's when empty), bounded by ctx: if ctx ends while the
// job is still waiting, the job is removed from the queue (never runs) and
// ctx's error is returned. A job already taken by a worker runs regardless —
// the worker owns it from the moment accepted closes, so the caller sees nil
// and the job itself must honour ctx. After close it reports
// errSchedulerClosed: the job then never runs and the caller owns any
// bookkeeping it attached to it. Jobs must not submit further jobs (a job
// waiting on a sub-job could starve the pool); batch APIs fan out from the
// caller's goroutine instead.
func (s *scheduler) submitCtx(ctx context.Context, tenant string, job func()) error {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errSchedulerClosed
	}
	s.startOnce.Do(s.start)
	w := &waiter{tenant: tenant, job: job, accepted: make(chan struct{})}
	q := s.tenants[tenant]
	if q == nil {
		q = &tenantState{}
		s.tenants[tenant] = q
	}
	q.waiters = append(q.waiters, w)
	s.mu.Unlock()
	s.cond.Broadcast()

	select {
	case <-w.accepted:
		return nil
	case <-ctx.Done():
	}
	// Cancelled while waiting — unless a worker took the job in the race,
	// in which case it runs and this submit succeeded. accepted is closed
	// under the lock, so the re-check is race-free.
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-w.accepted:
		return nil
	default:
	}
	if q := s.tenants[tenant]; q != nil {
		for i, qw := range q.waiters {
			if qw == w {
				q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
				break
			}
		}
		if q.inService == 0 && len(q.waiters) == 0 {
			delete(s.tenants, tenant)
		}
	}
	return ctx.Err()
}

// close stops accepting new jobs and lets the workers drain every job
// already queued; it is safe to call more than once. Submits that passed
// the closed check have their jobs served (accepted work is never
// abandoned), later submits get errSchedulerClosed.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}
