package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// DeadlockError reports a wedged pipeline: the zero-retirement watchdog saw
// no commit for a whole cycle budget (or the absolute cycle ceiling was
// hit). Dump carries a one-page pipeline-state snapshot for diagnosis.
type DeadlockError struct {
	// Cycle is the cycle at which the watchdog fired.
	Cycle uint64
	// Budget is the zero-retirement cycle budget that was exhausted (0 when
	// the absolute MaxCycles ceiling fired instead).
	Budget uint64
	// CommitIdx / TraceLen locate the stall in the instruction stream.
	CommitIdx, TraceLen int
	// Dump is the pipeline-state snapshot taken when the watchdog fired.
	Dump string
}

func (e *DeadlockError) Error() string {
	what := fmt.Sprintf("no commit for %d cycles", e.Budget)
	if e.Budget == 0 {
		what = "cycle ceiling exceeded"
	}
	return fmt.Sprintf("pipeline: deadlock: %s at cycle %d, commit index %d/%d\n%s",
		what, e.Cycle, e.CommitIdx, e.TraceLen, e.Dump)
}

// stateDump renders a one-page snapshot of the core: global occupancies,
// fetch state, and the ROB head region with each entry's blocking reason.
// It is called only from failure paths, so clarity beats speed.
func (c *Core) stateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- pipeline state (cycle %d) --\n", c.cycle)
	fmt.Fprintf(&b, "commit: next trace index %d/%d, headSeq %d, tailSeq %d (ROB %d/%d)\n",
		c.nextCommitIdx, c.tr.Len(), c.headSeq, c.tailSeq, c.tailSeq-c.headSeq, c.robCap)
	fmt.Fprintf(&b, "queues: IQ %d, LQ %d, SQ %d, SB %d (started %d)\n",
		c.iqCount, c.lqLen, c.sqLen, c.sbLen, c.sbStarted)
	fmt.Fprintf(&b, "fetch:  next index %d, blocked until cycle %d, stalled on branch seq %d\n",
		c.nextFetch, c.fetchBlockedTil, c.fetchStallSeq)
	awake, memParked, filed, waiting := c.wakeCounts()
	next := "none"
	if t := c.wheelNext(); t != neverRetry {
		next = fmt.Sprintf("cycle %d", t)
	}
	fmt.Fprintf(&b, "wakeup: memEpoch %d; unissued entries awake %d, memory-parked %d, wheel-filed %d, waiting on a producer %d; next wheel wake %s\n",
		c.memEpoch, awake, memParked, filed, waiting, next)
	b.WriteString("ROB head region (oldest first):\n")
	const maxEntries = 12
	n := 0
	for seq := c.headSeq; seq < c.tailSeq && n < maxEntries; seq++ {
		e := c.entry(seq)
		fmt.Fprintf(&b, "  seq %d idx %d %-7s %s\n", e.seq, e.traceIdx, kindName(e.kind), c.blockedReason(e))
		n++
	}
	if int(c.tailSeq-c.headSeq) > maxEntries {
		fmt.Fprintf(&b, "  ... %d younger entries elided\n", int(c.tailSeq-c.headSeq)-maxEntries)
	}
	if c.robEmpty() {
		b.WriteString("  (ROB empty — front end is not delivering micro-ops)\n")
	}
	return b.String()
}

func kindName(k isa.Kind) string {
	switch k {
	case isa.Load:
		return "load"
	case isa.Store:
		return "store"
	case isa.Branch:
		return "branch"
	default:
		return "compute"
	}
}

// wakeCounts counts the unissued in-flight entries by where their next wake
// can come from: the awake set, the memory-parked set, a wheel bucket, or a
// producer's dependents row. An entry can be in more than one.
func (c *Core) wakeCounts() (awake, memParked, filed, waiting int) {
	n := uint64(len(c.awake))
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.entry(seq)
		if e.state == stIssued {
			continue
		}
		pos := seq & c.robMask
		w, bit := pos>>6, uint64(1)<<(pos&63)
		if c.awake[w]&bit != 0 {
			awake++
		}
		if c.memParked[w]&bit != 0 {
			memParked++
		}
		for b := uint64(0); b < wheelSize; b++ {
			if c.wheel[b*n+w]&bit != 0 {
				filed++
				break
			}
		}
		if c.depProducer(e) != 0 {
			waiting++
		}
	}
	return awake, memParked, filed, waiting
}

// depProducer returns the unissued micro-op whose dependents row e is
// registered in and whose issue e's next step waits for — a needed source,
// or the store e's gate or serialisation waits on (waitStore) — or 0.
func (c *Core) depProducer(e *robEntry) uint64 {
	pos := e.seq & c.robMask
	for _, s := range [3]uint64{e.srcASeq, e.srcBSeq, e.waitStore} {
		if s < c.headSeq || s >= e.seq || c.readyAt[s&c.robMask] != 0 || !needs(e, s) {
			continue
		}
		if c.deps[(s&c.robMask)*uint64(len(c.awake))+pos>>6]&(1<<(pos&63)) != 0 {
			return s
		}
	}
	return 0
}

// parkState describes where an unissued entry's next evaluation comes from.
func (c *Core) parkState(e *robEntry) string {
	if p := c.depProducer(e); p != 0 {
		if p == e.waitStore {
			return fmt.Sprintf("time-bound park until store seq %d issues", p)
		}
		return fmt.Sprintf("time-bound park until seq %d issues", p)
	}
	switch {
	case !c.parked(e):
		return "awake"
	case e.retryTimed:
		return fmt.Sprintf("time-bound park until cycle %d", e.retryAt)
	case e.retryAt == neverRetry:
		return "memory-bound park until the next memory event"
	default:
		return fmt.Sprintf("memory-bound park until cycle %d or the next memory event", e.retryAt)
	}
}

// blockedReason explains, for one ROB entry, why it has not retired yet.
func (c *Core) blockedReason(e *robEntry) string {
	if e.state == stIssued {
		if c.cycle >= e.doneAt {
			if e.kind == isa.Store && c.sbLen >= c.cfg.SQ {
				return "done, commit stalled: store buffer full"
			}
			if e.violated {
				return "done, flagged memory order violation (squash at commit)"
			}
			return "done, waiting for commit slot"
		}
		return fmt.Sprintf("issued, completes at cycle %d", e.doneAt)
	}
	return c.waitReason(e) + "; " + c.parkState(e)
}

// waitReason names what an unissued entry waits for.
func (c *Core) waitReason(e *robEntry) string {
	if !c.producerReady(e.srcASeq) {
		return fmt.Sprintf("waiting on source A (seq %d)", e.srcASeq)
	}
	if !c.producerReady(e.srcBSeq) {
		return fmt.Sprintf("waiting on source B (seq %d)", e.srcBSeq)
	}
	switch e.kind {
	case isa.Load:
		if e.waited {
			return fmt.Sprintf("load predicted dependent, waiting (pred kind %v)", e.pred.Kind)
		}
		return "load unissued"
	case isa.Store:
		if !e.addrResolved {
			return "store address unresolved"
		}
		return fmt.Sprintf("store unissued, addr done at %d", e.addrDoneAt)
	default:
		return "unissued"
	}
}
