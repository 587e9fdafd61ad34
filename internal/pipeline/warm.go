package pipeline

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Functional warm-up for interval-parallel simulation (DESIGN.md §14). A
// core about to simulate an interval of a stream first runs the preceding
// warm-up window through the ordinary cycle loop, heating the state that a
// mid-stream core would have learned — MDP tables, the branch direction
// predictor, cache arrays — then rewinds the per-trace state so the
// measured run starts at the boundary exactly like a fresh run would,
// reporting only its own slice's counters.

// warmBase is the component-counter snapshot finalizeStats subtracts (see
// Core.base). The fields mirror the cumulative counters finalizeStats
// reads; everything else in stats.Run is per-RunContext already.
type warmBase struct {
	cycles                uint64
	predReads, predWrites uint64
	l1dHits, l1dMisses    uint64
	l2Hits, l2Misses      uint64
	l3Hits, l3Misses      uint64
}

// WarmContext simulates warm (the micro-ops immediately preceding a
// measured slice) to heat the core's learned structures, then resets the
// per-trace state so the next RunContext starts a fresh measured run:
//
//   - Kept: predictor tables, the branch prediction unit (advanced over the
//     warm stream; the measured run's outcomes continue it), cache arrays
//     (including in-flight fills — the cycle clock keeps advancing so their
//     absolute completion cycles stay meaningful), SVW filter state, and the
//     monotonic sequence numbers (committed producers must stay readable
//     as "ready" — producerReady treats seq < headSeq as architectural);
//     seqBase moves to headSeq, so the slice's first micro-op is index 0.
//   - Reset: the trace binding and its prefix structures (the
//     divergent-branch and store counts are slice-local — squash rebuilds
//     history from the slice's entries, so histories and counts must
//     restart with the measured slice), the rename table, the fetch
//     state, and the verification drain map
//     (a following verified run must see warm-written bytes as initial
//     memory, matching oracle.NewIntervalChecker's provider translation).
//   - Snapshotted: cumulative component counters, so finalizeStats reports
//     the measured slice alone.
//
// The warm-up runs with verification disabled — its commits precede the
// interval the checker knows about. The store buffer is drained to empty
// before the boundary so the measured run never orders its stores behind
// invisible warm-up traffic it could not account.
//
// A zero-length warm trace only snapshots (fresh cores have zero baselines,
// so the first interval of a parallel plan behaves like an ordinary run).
func (c *Core) WarmContext(ctx context.Context, warm *trace.Trace) error {
	if warm.Len() > 0 {
		if c.bp == nil {
			// Hold a unit, so the warm run's outcomes advance it and the
			// measured run's continue it (see bindTrace).
			dir, err := bpred.NewDir(c.opt.BranchPredictor)
			if err != nil {
				return err
			}
			c.bp = bpred.NewUnit(dir)
		}
		verify := c.opt.Verify
		c.opt.Verify = nil
		_, err := c.RunContext(ctx, warm)
		c.opt.Verify = verify
		if err != nil {
			return fmt.Errorf("pipeline: warm-up run: %w", err)
		}
		if err := c.settleStoreBuffer(); err != nil {
			return err
		}
		c.resetTraceState()
	}
	c.snapshotBase()
	return nil
}

// settleStoreBuffer advances the clock until every committed store has
// drained into the cache hierarchy. RunContext returns at full retirement,
// which can leave drains in flight; the boundary must not.
func (c *Core) settleStoreBuffer() error {
	start := c.cycle
	for c.sbLen > 0 {
		c.cycle++
		if c.cycle-start > c.opt.WatchdogCycles {
			return &DeadlockError{Cycle: c.cycle, Budget: c.opt.WatchdogCycles,
				CommitIdx: c.traceIdx(c.headSeq), TraceLen: 0, Dump: c.stateDump()}
		}
		c.drainStoreBuffer()
	}
	return nil
}

// resetTraceState rewinds everything bound to the warm trace while keeping
// the learned structures and the monotonic clock/sequence state. The warm
// run retired completely and the store buffer is settled, so all queues are
// empty — this only clears cursors, histories and scratch state.
func (c *Core) resetTraceState() {
	if c.tailSeq != c.headSeq || c.sqLen != 0 || c.sbLen != 0 || c.lqLen != 0 || c.iqCount != 0 {
		panic("pipeline: warm-up ended with in-flight state")
	}
	c.tr, c.pre = nil, nil
	c.bindHist(nil)
	c.lastWriter = [isa.NumRegs]uint64{}
	clear(c.readyAt)
	c.clearWake()
	c.wheelAt = c.cycle
	c.seqBase = c.headSeq
	c.maxFetched, c.fetchStores = 0, 0
	c.fetchBlockedTil, c.fetchStallSeq = 0, 0
	if c.vdrained != nil {
		clear(c.vdrained)
		for i := range c.vprov {
			c.vprov[i] = c.vprov[i][:0]
		}
	}
	c.verifyErr = nil
}

// snapshotBase records the cumulative component counters at the boundary.
func (c *Core) snapshotBase() {
	reads, writes := c.pred.Accesses()
	c.base = warmBase{
		cycles:     c.cycle,
		predReads:  reads,
		predWrites: writes,
		l1dHits:    c.mem.L1D.Hits,
		l1dMisses:  c.mem.L1D.Misses,
		l2Hits:     c.mem.L2.Hits,
		l2Misses:   c.mem.L2.Misses,
		l3Hits:     c.mem.L3.Hits,
		l3Misses:   c.mem.L3.Misses,
	}
}
