package pipeline

import (
	"repro/internal/isa"
	"repro/internal/mdp"
)

// fetchStage fetches, decodes and dispatches up to the front-end width of
// micro-ops per cycle from the correct-path stream, allocating ROB/IQ/LQ/SQ
// entries, renaming sources, predicting branches (first fetch only — a
// squash restores checkpointed front-end state rather than re-training; the
// outcome is read from the run's branch outcomes, see bindTrace), and asking
// the MDP for a decision on every load. It reports whether it acted: a
// dispatch, or a change of the stall or redirect state.
func (c *Core) fetchStage() bool {
	if c.cycle < c.fetchBlockedTil {
		return false
	}
	acted := false
	if c.fetchStallSeq != 0 {
		// Waiting on an unresolved mispredicted branch.
		if c.fetchStallSeq < c.headSeq {
			c.fetchStallSeq = 0 // resolved and committed while we waited
			acted = true
		} else if e := c.entry(c.fetchStallSeq); e.state == stIssued {
			c.fetchBlockedTil = e.doneAt + uint64(c.cfg.RedirectPenalty)
			c.fetchStallSeq = 0
			return true
		} else {
			return false
		}
	}
	width := c.cfg.FetchWidth
	for i := 0; i < width; i++ {
		idx := c.traceIdx(c.tailSeq)
		if idx >= c.tr.Len() || c.robFull() || c.iqCount >= c.cfg.IQ {
			break
		}
		in := &c.tr.Insts[idx]
		if in.IsLoad() && c.lqLen >= c.cfg.LQ {
			break
		}
		if in.IsStore() && c.sqLen >= c.cfg.SQ {
			break
		}
		if i == 0 {
			// One instruction-cache access per fetch group.
			if done := c.mem.Fetch(c.cycle, in.PC); done > c.cycle+uint64(c.cfg.L1I.HitLatency) {
				c.fetchBlockedTil = done
				return true
			}
		}
		c.dispatch(in)
		acted = true
		firstFetch := idx > c.maxFetched
		if firstFetch {
			c.maxFetched = idx
		}
		if in.IsBranch() {
			if in.Divergent() {
				c.decodeHist.Advance()
			}
			// The branch predictor trains once per static occurrence; after
			// a squash the front end restores its checkpointed state rather
			// than re-training (and correct-path refetches redirect cheaply).
			if firstFetch && c.br.Missed(idx) {
				c.fetchStallSeq = c.tailSeq - 1 // the branch just dispatched
				return true
			}
		}
	}
	return acted
}

// dispatch allocates and renames one micro-op, the next in trace order.
func (c *Core) dispatch(in *isa.Inst) {
	seq := c.tailSeq
	c.tailSeq++
	e := c.entry(seq)
	*e = robEntry{}
	e.inst, e.seq, e.kind = in, seq, in.Kind
	e.loadIndex = c.lqFirst + uint64(c.lqLen)
	if in.SrcA != 0 {
		e.srcASeq = c.lastWriter[in.SrcA]
	}
	if in.SrcB != 0 {
		e.srcBSeq = c.lastWriter[in.SrcB]
	}
	if in.Dst != 0 {
		c.lastWriter[in.Dst] = seq
	}
	pos := seq & c.robMask
	c.readyAt[pos] = 0
	// A previous occupant's memory-parked bit would end this entry's park at
	// the next memory event. A squash's memory event already clears every
	// such bit; clearing the slot's here keeps the park independent of that.
	c.memParked[pos>>6] &^= 1 << (pos & 63)
	c.run.Fetched++

	switch in.Kind {
	case isa.Nop:
		e.state = stIssued
		e.doneAt = c.cycle
		c.readyAt[pos] = e.doneAt + 1
	case isa.Load:
		c.iqCount++
		c.lq[e.loadIndex&c.lqMask] = lqSlot{seq: seq, addr: in.Addr, size: in.Size}
		c.lqLen++
		e.branchCount = c.decodeHist.Count()
		e.storeCount = c.fetchStores
		ld := mdp.LoadInfo{
			PC:          in.PC,
			Seq:         seq,
			BranchCount: e.branchCount,
			StoreCount:  e.storeCount,
		}
		if c.needOracle {
			ld.OracleDep, ld.OracleDist = c.oracleDep(e)
		}
		e.pred = c.pred.Predict(ld, c.decodeHist)
	case isa.Store:
		c.iqCount++
		e.branchCount = c.decodeHist.Count()
		e.storeIndex = c.fetchStores
		c.fetchStores++
		e.ssWaitSeq = c.pred.StoreDispatch(mdp.StoreInfo{
			PC: in.PC, Seq: seq, BranchCount: e.branchCount, StoreIndex: e.storeIndex,
		})
		*c.sqAt(c.sqLen) = storeSlot{seq: seq, storeIndex: e.storeIndex, addr: in.Addr, size: in.Size}
		c.sqLen++
		c.stLines.add(in.Addr, in.Size)
	default:
		c.iqCount++
	}
	if in.Kind != isa.Nop {
		c.awake[pos>>6] |= 1 << (pos & 63)
	}
}

// issueStage wakes up and selects ready micro-ops, oldest first, limited by
// the machine's load, store and compute ports.
//
// The scan is wake-ordered: after firing this cycle's wheel bucket it visits
// only the awake slots, in ring order from the ROB head, reading each bitset
// word live so that a store resolving its address mid-scan (memEvent) still
// wakes younger memory-bound entries in the same scan. The park check stays
// the authority: a woken entry whose park still holds — a stale bit, or a
// bound beyond the wheel horizon — is re-filed, not evaluated. An evaluated
// entry either issues, parks again (setRetry, register), or is port-limited
// and stays awake for the next cycle (port availability is not
// predictable); each of the last two writes the entry's wait record.
//
// A park is a lower bound on the first cycle the entry's blocking condition
// can clear, so an evaluation the scan skips would only have re-parked the
// entry: issue order and port use do not depend on which wake structure
// found an entry, and a scan that evaluated every entry every cycle would
// produce the same timing.
//
// It reports whether it acted: an issue, or a store address resolution
// (which takes a port and is a memory event).
func (c *Core) issueStage() bool {
	c.fireWheel()
	aluPorts := c.cfg.IssuePorts - c.cfg.LoadPorts - c.cfg.StorePorts
	loads, storesP, alu, total := 0, 0, 0, 0
	issued := false
	n := c.tailSeq - c.headSeq
	for off := c.nextAwake(0, n); off < n; off = c.nextAwake(off+1, n) {
		if total >= c.cfg.IssuePorts {
			break
		}
		pos := (c.headSeq + off) & c.robMask
		word, bit := pos>>6, uint64(1)<<(pos&63)
		c.awake[word] &^= bit
		e := &c.rob[pos]
		if e.state == stIssued {
			continue
		}
		if c.parked(e) {
			if e.retryAt != neverRetry {
				c.file(pos, e.retryAt)
			}
			continue
		}
		c.evals++
		c.memParked[word] &^= bit
		switch e.kind {
		case isa.ALU, isa.Branch:
			if !c.srcsReady(e) {
				c.waitSources(e, e.srcASeq, e.srcBSeq)
			} else if alu < aluPorts {
				lat := int(e.inst.Lat)
				if lat < 1 {
					lat = 1
				}
				e.state = stIssued
				e.doneAt = c.cycle + uint64(lat)
				c.readyAt[pos] = e.doneAt + 1
				c.wakeDeps(e, pos)
				c.iqCount--
				c.run.IssuedUops++
				alu++
				total++
			}
		case isa.Store:
			c.tryStore(e, &storesP, &total)
		case isa.Load:
			switch {
			case !c.srcsReady(e):
				c.waitSources(e, e.srcASeq, e.srcBSeq)
			case loads >= c.cfg.LoadPorts:
			case c.gateBlocked(e):
				e.waited = true
			case c.tryLoad(e):
				loads++
				total++
			}
		}
		if e.state == stIssued {
			issued = true
		} else if !c.parked(e) {
			c.awake[word] |= bit // port-limited
			e.cause, e.waitOn = waitPort, 0
		}
	}
	return issued || total > 0
}

// tryStore advances a store through its two phases: address generation
// (needs the address register, a store port, and any Store Sets
// serialisation to clear) and data readiness (the data register's producer).
// The store completes when both are done.
func (c *Core) tryStore(e *robEntry, storesP *int, total *int) {
	if !e.addrResolved {
		if !c.producerReady(e.srcASeq) {
			c.waitSources(e, e.srcASeq, 0)
			return
		}
		if *storesP >= c.cfg.StorePorts {
			return
		}
		// Store Sets serialisation. Sequence numbers are reused after a
		// squash, so a stale last-fetched-store id can alias this store or a
		// younger one; only a strictly older live store is a valid
		// serialisation target (anything else would deadlock the pair).
		if w := e.ssWaitSeq; w != 0 && w >= c.headSeq && w < e.seq {
			if we := c.entry(w); we.inst.IsStore() && (we.state != stIssued || c.cycle < we.doneAt) {
				c.waitStoreDone(e, we, waitStoreSets)
				return // serialised behind an older store of the set
			}
		}
		e.addrResolved = true
		c.sqAt(c.sqIndex(e.storeIndex)).resolved = true
		e.addrDoneAt = c.cycle + 1
		*storesP++
		*total++
		// The resolved address can change any blocked load's SQ search.
		c.memEvent()
		c.resolveStore(e)
	}
	if e.addrResolved && !c.producerReady(e.srcBSeq) {
		c.waitSources(e, e.srcBSeq, 0)
		return
	}
	e.state = stIssued
	e.doneAt = e.addrDoneAt
	if c.cycle > e.doneAt {
		e.doneAt = c.cycle
	}
	c.readyAt[e.seq&c.robMask] = e.doneAt + 1
	c.wakeDeps(e, e.seq&c.robMask)
	c.iqCount--
	c.run.IssuedUops++
}

// commitStage retires up to the commit width in order. A load flagged with a
// memory order violation squashes here (lazy squash) after training the
// predictor with the true youngest conflicting store. It reports whether it
// acted: a commit or a squash.
func (c *Core) commitStage() bool {
	n := 0
	for ; n < c.cfg.CommitWidth && !c.robEmpty(); n++ {
		e := c.entry(c.headSeq)
		if e.state != stIssued || c.cycle < e.doneAt {
			break
		}
		in := e.inst
		if e.kind == isa.Load && c.opt.Filter == FilterSVW && !e.violated {
			c.svwCheckLoad(e) // sets the violation fields on failure
		}
		if e.kind == isa.Load && e.violated {
			c.commitViolation(e)
			return true
		}
		if e.kind == isa.Store {
			if c.sbLen >= c.cfg.SQ {
				break // store buffer full: commit stalls
			}
			// The store's slot, the oldest in flight, joins the store buffer.
			c.sbLen++
			c.sqLen--
			c.noteCommittedStore(e)
			c.pred.StoreCommit(mdp.StoreInfo{
				PC: in.PC, Seq: e.seq, BranchCount: e.branchCount, StoreIndex: e.storeIndex,
			})
			c.run.Stores++
		}
		if e.kind == isa.Load {
			c.commitLoad(e)
		}
		if in.Divergent() {
			c.commitHist.Advance()
		}
		if c.opt.Verify != nil {
			if err := c.verifyCommit(e); err != nil {
				c.verifyErr = err
				return true
			}
		}
		c.run.Committed++
		c.headSeq++
	}
	return n > 0
}

// commitLoad pops a successfully committing load from the load queue and
// audits its prediction.
func (c *Core) commitLoad(e *robEntry) {
	pos := c.lqFirst & c.lqMask
	c.lqExec[pos>>6] &^= 1 << (pos & 63)
	c.lqFirst++
	c.lqLen--
	c.ldLines.remove(e.inst.Addr, e.inst.Size)
	c.run.Loads++
	if e.fwdFrom != 0 {
		c.run.Forwards++
	}
	out := c.outcomeOf(e, false)
	if out.Waited {
		if out.TrueDep {
			c.run.TrueDependencies++
		} else {
			c.run.FalseDependencies++
		}
	}
	c.pred.TrainCommit(c.loadInfoOf(e), out, c.commitHist)
}

// commitViolation trains the predictor with the detected conflict and
// squashes the violating load and everything younger.
func (c *Core) commitViolation(e *robEntry) {
	c.run.MemOrderViolations++
	if !e.trainedAtDetect {
		out := c.outcomeOf(e, true)
		dist := mdp.DistanceOf(c.loadInfoOf(e), e.violStore)
		c.pred.TrainViolation(c.loadInfoOf(e), e.violStore, dist, out, c.commitHist)
	}
	c.squash(e)
}

func (c *Core) loadInfoOf(e *robEntry) mdp.LoadInfo {
	return mdp.LoadInfo{
		PC:          e.inst.PC,
		Seq:         e.seq,
		BranchCount: e.branchCount,
		StoreCount:  e.storeCount,
	}
}

// outcomeOf classifies a load's prediction at commit. A waited load is a
// true dependence if the store it waited for overlaps its footprint (for
// store-set style waits: if any older store did).
func (c *Core) outcomeOf(e *robEntry, violated bool) mdp.Outcome {
	out := mdp.Outcome{Pred: e.pred, Violated: violated, Waited: e.waited}
	if e.waited {
		switch e.pred.Kind {
		case mdp.Distance, mdp.StoreSeq:
			out.TrueDep = e.waitValid && isa.Overlap(e.waitAddr, e.waitSize, e.inst.Addr, e.inst.Size)
		case mdp.WaitAll, mdp.Vector:
			out.TrueDep = e.fwdFrom != 0
		}
	}
	if e.fwdFrom != 0 {
		out.ActualDep = true
	}
	if violated {
		out.ActualDep = true
		out.ActualDist = mdp.DistanceOf(c.loadInfoOf(e), e.violStore)
	}
	return out
}

// squash discards the violating load ld and all younger micro-ops, restores
// the rename state from the surviving entries, and redirects fetch to the
// load.
func (c *Core) squash(ld *robEntry) {
	fromSeq := ld.seq
	c.run.SquashedUops += c.tailSeq - fromSeq
	c.tailSeq = fromSeq
	// Truncate the store ring to surviving stores, releasing the line
	// filter counts of the discarded ones (the discarded entries' contents
	// are intact until their seqs are re-dispatched). Committed stores are
	// older than any in-flight micro-op, so only the store queue shrinks.
	for c.sqLen > 0 {
		last := c.sqAt(c.sqLen - 1)
		if last.seq < fromSeq {
			break
		}
		c.stLines.remove(last.addr, last.size)
		c.sqLen--
	}
	// Likewise the load queue, releasing the counts of executed loads.
	for c.lqLen > 0 {
		pos := (c.lqFirst + uint64(c.lqLen) - 1) & c.lqMask
		if c.lq[pos].seq < fromSeq {
			break
		}
		if c.lqExec[pos>>6]&(1<<(pos&63)) != 0 {
			c.lqExec[pos>>6] &^= 1 << (pos & 63)
			c.ldLines.remove(c.lq[pos].addr, c.lq[pos].size)
		}
		c.lqLen--
	}
	// Conservatively wake every memory-bound survivor: squashes are rare.
	// Time-bound parks need no wake — a survivor's bound rests on older
	// entries only, and those survive too. Squashed slots keep stale wake
	// bits, which the scan's park check absorbs.
	c.memEvent()
	// Rebuild the rename table and IQ occupancy from survivors.
	for r := range c.lastWriter {
		c.lastWriter[r] = 0
	}
	c.iqCount = 0
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.entry(seq)
		if e.inst.Dst != 0 {
			c.lastWriter[e.inst.Dst] = seq
		}
		if e.state != stIssued {
			c.iqCount++
		}
	}
	c.fetchStallSeq = 0
	c.fetchBlockedTil = c.cycle + uint64(c.cfg.RedirectPenalty)
	// Rewind the decode-time counters and history to the squash point
	// (checkpoint restore): they must count exactly the stores and divergent
	// branches older than the re-fetched load, or re-dispatched loads predict
	// with future branches in their context.
	c.fetchStores = ld.storeCount
	c.decodeHist.Seek(ld.branchCount)
}

// drainStoreBuffer writes committed stores to the cache and frees their
// store-ring slots. Drains start in order from the front, so the started
// slots always form a prefix tracked by sbStarted — no scan. It reports
// whether it acted: a drain start or a free.
func (c *Core) drainStoreBuffer() bool {
	started := 0
	for ; c.sbStarted < c.sbLen && started < c.cfg.SBDrainPerCycle; started++ {
		s := c.stAt(c.sbStarted)
		s.drainedAt = c.mem.StoreDrain(c.cycle, s.addr)
		c.sbStarted++
	}
	// Free fully drained slots from the front.
	freed := false
	for c.sbStarted > 0 {
		s := c.stAt(0)
		if c.cycle < s.drainedAt {
			break
		}
		if c.vdrained != nil {
			c.noteDrained(s)
		}
		c.stLines.remove(s.addr, s.size)
		c.stHead = (c.stHead + 1) & c.stMask
		c.sbLen--
		c.sbStarted--
		freed = true
	}
	if freed {
		// A freed entry can unblock loads partially covered by it.
		c.memEvent()
	}
	return started > 0 || freed
}
