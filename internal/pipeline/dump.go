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
		c.traceIdx(c.headSeq), c.tr.Len(), c.headSeq, c.tailSeq, c.tailSeq-c.headSeq, c.robCap)
	fmt.Fprintf(&b, "queues: IQ %d, LQ %d, SQ %d, SB %d (started %d)\n",
		c.iqCount, c.lqLen, c.sqLen, c.sbLen, c.sbStarted)
	fmt.Fprintf(&b, "fetch:  next index %d, blocked until cycle %d, stalled on branch seq %d\n",
		c.traceIdx(c.tailSeq), c.fetchBlockedTil, c.fetchStallSeq)
	awake, memParked, filed, waiting := c.wakeCounts()
	next := "none"
	if t := c.wheelNext(); t != neverRetry {
		next = fmt.Sprintf("cycle %d", t)
	}
	fmt.Fprintf(&b, "wakeup: memEpoch %d; unissued entries awake %d, memory-parked %d, wheel-filed %d, waiting on a producer %d; next wheel wake %s\n",
		c.memEpoch, awake, memParked, filed, waiting, next)
	b.WriteString("ROB head region (oldest first):\n")
	const maxEntries = 12
	for seq := c.headSeq; seq < c.tailSeq && seq < c.headSeq+maxEntries; seq++ {
		e := c.entry(seq)
		fmt.Fprintf(&b, "  seq %d idx %d %-7s %s\n", e.seq, c.traceIdx(e.seq), e.kind, c.blockedReason(e))
	}
	if int(c.tailSeq-c.headSeq) > maxEntries {
		fmt.Fprintf(&b, "  ... %d younger entries elided\n", int(c.tailSeq-c.headSeq)-maxEntries)
	}
	if c.robEmpty() {
		b.WriteString("  (ROB empty — front end is not delivering micro-ops)\n")
	}
	return b.String()
}

// wakeCounts counts the unissued in-flight entries by where their next wake
// comes from, one place each: the awake set, a producer's dependents row
// (the wait record's waitOn), the wheel (a time-bound park), or the
// memory-parked set (a memory-bound one; the cause picks the class).
func (c *Core) wakeCounts() (awake, memParked, filed, waiting int) {
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.entry(seq)
		pos := seq & c.robMask
		switch {
		case e.state == stIssued:
		case c.awake[pos>>6]&(1<<(pos&63)) != 0:
			awake++
		case e.waitOn != 0:
			waiting++
		case e.cause.memoryBound():
			memParked++
		default:
			filed++
		}
	}
	return awake, memParked, filed, waiting
}

// blockedReason explains, for one ROB entry, why it has not retired yet:
// for an unissued one, its wait record and park.
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
	var park string
	switch {
	case e.waitOn != 0 && e.cause == waitOperand:
		park = fmt.Sprintf("time-bound park until seq %d issues", e.waitOn)
	case e.waitOn != 0:
		park = fmt.Sprintf("time-bound park until store seq %d issues", e.waitOn)
	case !c.parked(e):
		park = "awake"
	case !e.cause.memoryBound():
		park = fmt.Sprintf("time-bound park until cycle %d", e.retryAt)
	case e.retryAt == neverRetry:
		park = "memory-bound park until the next memory event"
	default:
		park = fmt.Sprintf("memory-bound park until cycle %d or the next memory event", e.retryAt)
	}
	return "waits: " + e.cause.String() + "; " + park
}
