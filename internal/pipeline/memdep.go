package pipeline

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mdp"
)

// This file implements the memory dependence machinery: the oracle scan
// that feeds the Ideal predictor, the prediction-driven issue gates, the
// store-ring search with store-to-load forwarding, and the load-queue search
// a resolving store performs to detect memory order violations (with the
// §IV-A1 forwarding filter).
//
// A store is one store-ring slot from dispatch until it drains: in flight
// (the store queue), then committed (the store buffer), in program order.
// So one search walks from a load's youngest older store back through the
// store buffer.
//
// Every gate kind waits on one older store at a time (gateBlocked); only
// the store-ring search parks memory-bound.
//
// All associative searches are gated by the core's per-cache-line occupancy
// filters (stLines/ldLines): a zero filter response proves no queue entry
// can overlap the probing footprint, so the common no-conflict case never
// walks a queue. A walk that does run reads the queue's own copies of the
// footprints (storeSlot, lqSlot) and touches a ROB entry only for an
// in-flight match.

// oracleDep finds the youngest older in-flight store whose footprint
// overlaps the dispatching load, using the simulator's exact knowledge of
// addresses. Only the Ideal predictor consumes the result (see needOracle).
// Every in-flight store is older than a dispatching load.
func (c *Core) oracleDep(ld *robEntry) (bool, int) {
	in := ld.inst
	if !c.stLines.mayOverlap(in.Addr, in.Size) {
		return false, 0
	}
	for i := c.sqLen - 1; i >= 0; i-- {
		if s := c.sqAt(i); isa.Overlap(s.addr, s.size, in.Addr, in.Size) {
			return true, int(ld.storeCount - 1 - s.storeIndex)
		}
	}
	return false, 0
}

// sqIndex returns the store-queue index of the in-flight store with global
// store allocation index idx, or -1 if it has already committed (or was
// never dispatched). Store queue order makes this a direct offset.
func (c *Core) sqIndex(idx uint64) int {
	if c.sqLen == 0 {
		return -1
	}
	first := c.sqAt(0).storeIndex
	if idx < first || idx >= first+uint64(c.sqLen) {
		return -1
	}
	return int(idx - first)
}

// storeBySQIndex returns the in-flight store with the given global store
// allocation index, or nil if it has already committed (or was never
// dispatched).
func (c *Core) storeBySQIndex(idx uint64) *robEntry {
	i := c.sqIndex(idx)
	if i < 0 {
		return nil
	}
	return c.entry(c.sqAt(i).seq)
}

// olderStores returns the number of leading store-queue slots that hold
// stores older than a load that followed storeCount stores: the youngest of
// them is at index olderStores-1.
func (c *Core) olderStores(storeCount uint64) int {
	if c.sqLen == 0 || storeCount <= c.sqAt(0).storeIndex {
		return 0
	}
	return int(min(storeCount-c.sqAt(0).storeIndex, uint64(c.sqLen)))
}

// storeDone reports whether a store micro-op has fully executed.
func (c *Core) storeDone(st *robEntry) bool {
	return st.state == stIssued && c.cycle >= st.doneAt
}

// gateBlocked evaluates the load's MDP decision: true while the load must
// keep waiting. Each gate kind only chooses its blocking store: Distance and
// StoreSeq their one store (whose footprint commit uses to classify the wait
// as a true or false dependence), WaitAll the youngest older store that is
// not done, Vector the not-done store at the lowest masked distance. The
// load then waits for that store (waitStoreDone) and, woken, re-runs the
// gate. The wait is time-bound: a gate's outcome changes only with time and
// store issue, never with a memory event — an address resolution makes no
// store done, a store-buffer free concerns committed (done) stores, and a
// squash removes only entries younger than the violating load, so never a
// store that a surviving gated load waits on.
func (c *Core) gateBlocked(e *robEntry) bool {
	var st *robEntry
	cause := waitGate
	switch e.pred.Kind {
	case mdp.Distance:
		if uint64(e.pred.Dist) >= e.storeCount {
			return false // distance reaches before the stream start
		}
		st = c.storeBySQIndex(e.storeCount - 1 - uint64(e.pred.Dist))
		if st == nil || st.seq >= e.seq {
			return false // already committed (or nonsense prediction)
		}
	case mdp.StoreSeq:
		if e.pred.Seq == 0 || e.pred.Seq < c.headSeq || e.pred.Seq >= e.seq {
			return false
		}
		st = c.entry(e.pred.Seq)
		if !st.inst.IsStore() {
			return false // stale identifier from before a squash
		}
	case mdp.WaitAll:
		cause = waitGateAll
		for i := c.olderStores(e.storeCount) - 1; i >= 0 && st == nil; i-- {
			if s := c.entry(c.sqAt(i).seq); !c.storeDone(s) {
				st = s
			}
		}
	case mdp.Vector:
		cause = waitGateAll
		mask := e.pred.Mask
		if e.storeCount < 64 {
			mask &= 1<<e.storeCount - 1 // distances beyond the stream start
		}
		for ; mask != 0 && st == nil; mask &= mask - 1 {
			s := c.storeBySQIndex(e.storeCount - 1 - uint64(bits.TrailingZeros64(mask)))
			if s != nil && s.seq < e.seq && !c.storeDone(s) {
				st = s
			}
		}
	}
	if st != nil && cause == waitGate {
		e.waitValid, e.waitAddr, e.waitSize = true, st.inst.Addr, st.inst.Size
	}
	if st == nil || c.storeDone(st) {
		return false
	}
	c.waitStoreDone(e, st, cause)
	return true
}

// tryLoad attempts to execute a load whose sources are ready and whose MDP
// gate has cleared. It searches the store ring for the youngest overlapping
// resolved store older than the load, from its youngest older in-flight
// store back through the store buffer (whose committed stores are resolved
// and done):
//
//   - full coverage by a done store → store-to-load forwarding at L1D
//     latency (the store ring is searched in parallel with the L1D access);
//   - full coverage, store not done → wait (retry when it can be done);
//   - partial coverage → wait until the store drains to the cache;
//   - no overlap → demand access to the memory hierarchy (speculative if
//     unresolved older stores remain).
//
// Blocked outcomes park memory-bound; any store address resolution or
// store-buffer free is a memory event that ends the park, since either can
// change which store the search finds. Returns true if the load issued
// (consuming a load port).
func (c *Core) tryLoad(e *robEntry) bool {
	in := e.inst
	if c.stLines.mayOverlap(in.Addr, in.Size) {
		for i := c.sbLen + c.olderStores(e.storeCount) - 1; i >= 0; i-- {
			s := c.stAt(i)
			if !s.resolved || !isa.Overlap(s.addr, s.size, in.Addr, in.Size) {
				continue
			}
			if in.Addr < s.addr || s.addr+uint64(s.size) < in.Addr+uint64(in.Size) {
				// Partial coverage: wait for the store to reach the cache.
				c.setRetry(e, neverRetry, waitDrain)
				return false
			}
			if i >= c.sbLen {
				if st := c.entry(s.seq); !c.storeDone(st) {
					// True-dependence stall until the forwarder can be done.
					c.setRetry(e, c.storeDoneBound(st), waitForward)
					return false
				}
			}
			c.issueLoadForward(e, s)
			return true
		}
	}
	// No overlapping store visible: access the cache hierarchy.
	if c.vprov != nil {
		c.captureMemRead(e)
	}
	c.run.IssuedUops++
	e.state = stIssued
	e.executed = true
	e.executedAt = c.cycle
	e.doneAt = c.mem.Load(c.cycle, in.PC, in.Addr)
	c.readyAt[e.seq&c.robMask] = e.doneAt + 1
	c.wakeDeps(e, e.seq&c.robMask)
	c.iqCount--
	c.recordSVW(e, 0, false)
	c.noteLoadExecuted(e)
	return true
}

// noteLoadExecuted indexes a just-executed load for the violation search:
// its footprint enters the load line filter and its LQ slot is marked
// executed.
func (c *Core) noteLoadExecuted(e *robEntry) {
	c.ldLines.add(e.inst.Addr, e.inst.Size)
	pos := e.loadIndex & c.lqMask
	c.lqExec[pos>>6] |= 1 << (pos & 63)
}

// issueLoadForward completes a load through store-to-load forwarding from
// the store in slot s. The store ring is searched associatively in parallel
// with the L1D access, so forwarding costs the L1D hit latency (Table I).
func (c *Core) issueLoadForward(e *robEntry, s *storeSlot) {
	if c.vprov != nil {
		c.captureForward(e, c.traceIdx(s.seq))
	}
	c.run.IssuedUops++
	e.state = stIssued
	e.executed = true
	e.executedAt = c.cycle
	e.fwdFrom = s.seq
	e.doneAt = c.cycle + uint64(c.cfg.L1D.HitLatency)
	c.readyAt[e.seq&c.robMask] = e.doneAt + 1
	c.wakeDeps(e, e.seq&c.robMask)
	c.iqCount--
	c.recordSVW(e, s.storeIndex, true)
	c.noteLoadExecuted(e)
}

// resolveStore runs when a store resolves its address: it searches the load
// queue for younger loads that already executed with an overlapping
// footprint. With the forwarding filter (§IV-A1) a load whose
// forwarder is younger than this store is left alone — it already has the
// correct value; without it (the Fig. 12 ablation, matching gem5) any such
// load is flagged. The youngest conflicting store is recorded for commit-
// time training.
//
// The load line filter short-circuits stores with no executed overlapping
// load (the overwhelmingly common case). The search starts at the store's
// first younger load, whose LQ index is the store's loadIndex, and visits
// only executed slots, in seq order, so detect-time training sees conflicts
// in the order a ROB walk would produce.
func (c *Core) resolveStore(st *robEntry) {
	if c.opt.Filter == FilterSVW {
		return // loads verify themselves at commit against the SSBF
	}
	addr, size := st.inst.Addr, st.inst.Size
	if !c.ldLines.mayOverlap(addr, size) {
		return
	}
	n := uint64(c.lqLen)
	next := func(off uint64) uint64 { return nextBit(c.lqExec, c.lqFirst, c.lqMask, c.lqSpan, off, n) }
	for off := next(st.loadIndex - c.lqFirst); off < n; off = next(off + 1) {
		c.probes++
		l := &c.lq[(c.lqFirst+off)&c.lqMask]
		if !isa.Overlap(l.addr, l.size, addr, size) {
			continue
		}
		ld := c.entry(l.seq)
		if ld.fwdFrom == st.seq {
			continue // forwarded from this very store: value is correct
		}
		if c.opt.Filter == FilterFwd && ld.fwdFrom > st.seq {
			continue // got the value from a younger store: correct
		}
		if c.fiFwdFlip {
			// Injected forwarding bug (faultinject.FaultFwdFlip): the filter
			// condition is flipped, wrongly concluding this load already has
			// the store's value, so no violation is ever flagged and the
			// stale value retires. The verification oracle must catch it.
			continue
		}
		if !ld.violated || st.seq > ld.violStore.Seq {
			ld.violated = true
			ld.violStore = mdp.StoreInfo{
				PC:          st.inst.PC,
				Seq:         st.seq,
				BranchCount: st.branchCount,
				StoreIndex:  st.storeIndex,
			}
		}
		if c.opt.TrainAtDetect && !ld.trainedAtDetect {
			// §IV-A1 ablation: train immediately with the first store that
			// detects the conflict — possibly not the youngest conflicting
			// one (the Fig. 3d hazard commit-time training avoids). The
			// squash itself stays lazy.
			ld.trainedAtDetect = true
			ldInfo := c.loadInfoOf(ld)
			dist := mdp.DistanceOf(ldInfo, ld.violStore)
			c.pred.TrainViolation(ldInfo, ld.violStore, dist, c.outcomeOf(ld, true), c.histAt(ld.branchCount))
		}
	}
}
