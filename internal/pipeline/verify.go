package pipeline

import "repro/internal/isa"

// This file is the pipeline side of the differential verification oracle
// (internal/oracle): an optional retirement-stream tap that reports, for
// every committed micro-op, where the architectural value of each loaded
// byte came from. The tap is nil by default and every capture site is
// gated on a single pointer test, so the default hot path pays nothing
// (TestSteadyStateZeroAlloc and TestWorkCounts hold its allocations; its
// time shows in BenchmarkCoreRun).
//
// The contract with the checker: the pipeline records, at the cycle a load
// actually executes, the *architectural source* of each loaded byte as the
// micro-architecture obtained it — the dynamic trace index of the store it
// forwarded from (store queue or store buffer), or the last store drained
// into the cache hierarchy covering that byte (-1 when the byte still holds
// initial memory). A load that executed speculatively past an unresolved
// older store captures the stale source; if the mis-speculation machinery
// (forwarding filter, SVW) works, the load squashes and re-executes before
// commit and the capture is overwritten. A silent forwarding or wakeup bug
// leaves the stale capture in place, and the in-order oracle flags it at
// retirement.

// CommitEvent describes one retired micro-op to an Options.Verify callback.
// The struct and the Providers slice are reused across events; callbacks
// must not retain either past the call.
type CommitEvent struct {
	// Cycle is the commit cycle.
	Cycle uint64
	// TraceIdx is the dynamic trace index of the retiring micro-op.
	// Commits are architecturally in order, so a correct pipeline retires
	// consecutive indices.
	TraceIdx int
	// Providers holds, for a retired load, the per-byte source of the
	// loaded value as the pipeline obtained it: the trace index of the
	// providing store, or -1 for initial memory. Its length is the load's
	// Size; nil for non-loads.
	Providers []int32
}

// CommitCheck observes the retirement stream. Returning a non-nil error
// aborts the run; pipeline.RunContext returns that error verbatim.
type CommitCheck func(ev *CommitEvent) error

// OptionsKey is the comparable identity of an Options value — every field
// except the Verify callback (func values cannot be map keys). Core pools
// keyed by machine and options use it.
type OptionsKey struct {
	Filter          FilterMode
	BranchPredictor string
	HistCap         int
	TrainAtDetect   bool
	MaxCycles       uint64
	WatchdogCycles  uint64
}

// Key returns the comparable identity of o.
func (o Options) Key() OptionsKey {
	return OptionsKey{
		Filter:          o.Filter,
		BranchPredictor: o.BranchPredictor,
		HistCap:         o.HistCap,
		TrainAtDetect:   o.TrainAtDetect,
		MaxCycles:       o.MaxCycles,
		WatchdogCycles:  o.WatchdogCycles,
	}
}

// provSlot returns the (resized) provider capture buffer for a load's ROB
// slot. Slots are overwritten on every execution, so a squashed and
// re-dispatched load never retires a stale capture.
func (c *Core) provSlot(e *robEntry) []int32 {
	slot := e.seq & c.robMask
	p := c.vprov[slot]
	n := int(e.inst.Size)
	if cap(p) < n {
		p = make([]int32, n)
	} else {
		p = p[:n]
	}
	c.vprov[slot] = p
	return p
}

// captureForward records a fully-forwarded load: every byte comes from the
// store at the given trace index.
func (c *Core) captureForward(e *robEntry, storeTraceIdx int) {
	p := c.provSlot(e)
	v := int32(storeTraceIdx)
	for i := range p {
		p[i] = v
	}
}

// captureMemRead records a load served by the cache hierarchy: each byte
// comes from the last store drained over it (-1 = initial memory). Reading
// the drained map at execute time is the point — a load that ran ahead of
// an unresolved older store captures the stale pre-store source, and only a
// successful squash-and-re-execute replaces it.
func (c *Core) captureMemRead(e *robEntry) {
	p := c.provSlot(e)
	addr := e.inst.Addr
	for i := range p {
		if w, ok := c.vdrained[addr+uint64(i)]; ok {
			p[i] = w
		} else {
			p[i] = -1
		}
	}
}

// noteDrained marks a freed store-buffer entry's bytes as present in the
// cache hierarchy. Drains free strictly in program order, so the map always
// holds the youngest drained writer per byte.
func (c *Core) noteDrained(e *sbEntry) {
	for a := e.addr; a < e.addr+uint64(e.size); a++ {
		c.vdrained[a] = int32(e.traceIdx)
	}
}

// verifyCommit reports one retiring micro-op to the Options.Verify
// callback. Called only when the callback is non-nil.
func (c *Core) verifyCommit(e *robEntry) error {
	ev := &c.vev
	ev.Cycle = c.cycle
	ev.TraceIdx = e.traceIdx
	ev.Providers = nil
	if e.kind == isa.Load {
		ev.Providers = c.vprov[e.seq&c.robMask]
	}
	return c.opt.Verify(ev)
}
