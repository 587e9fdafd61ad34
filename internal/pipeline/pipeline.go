// Package pipeline implements the cycle-level out-of-order core timing
// model: fetch/dispatch, rename, oldest-first issue over load/store/compute
// ports, a load queue, and a store ring that holds each store from dispatch
// (store queue) through commit (post-commit store buffer) until it drains
// into the cache hierarchy, with store-to-load forwarding from both; eager
// squash for branch mispredictions (front-end bubbles in this trace-driven
// model), and lazy squash for memory order violations, with the forwarding
// filter of the paper's §IV-A1.
//
// The model is functional-first/timing-second: the architectural correct-
// path stream comes from package trace, and the core decides when each
// micro-op's effects become visible. On a memory-order-violation squash the
// core re-dispatches the stream from the violating load. Wrong-path
// micro-ops are not simulated; mispredictions cost redirect bubbles (see
// DESIGN.md §3 for why this substitution preserves the predictor ranking).
//
// Hot-path structure (see DESIGN.md §10): issue is wake-ordered — an entry
// whose wake-up condition provably cannot clear yet is parked with a lower
// bound (retryAt), and filed where its wake will come from: a
// timing wheel, a memory-parked set woken by memory events, or the dependents
// row of the micro-op whose issue it waits for (a register producer, or the
// unissued store a Distance/StoreSeq gate or Store Sets serialisation waits
// on); the issue scan visits only the bits of an awake set, oldest first; fetch
// reads each branch's misprediction from outcomes computed once per trace and
// direction predictor (see bindTrace); a cycle in which no stage acted jumps
// the clock to the next pending event (next non-empty wheel bucket, ROB-head
// completion, store-buffer drain, fetch unblock) without crossing a watchdog
// poll; the store-ring and load-queue searches are gated by hashed
// per-cache-line occupancy filters so non-overlapping accesses never scan, and
// a scan that does run reads dense copies of the queued footprints (store-ring
// slots, from the load's youngest older store back through the store buffer;
// the executed load-queue slots, from the store's oldest younger load) rather
// than ROB entries; and the steady state performs no heap allocations (fixed
// rings for the LQ and the stores, fixed bitsets, wheel and dependents matrix,
// reused scratch buffers).
package pipeline

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/histutil"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options select core behaviours independent of the machine configuration.
type Options struct {
	// Filter selects the mis-speculation filtering mechanism: the paper's
	// §IV-A1 forwarding filter (default), no filtering (the Fig. 12 "No
	// FWD" ablation), or NoSQ's SVW/SSBF commit-time verification (§VII).
	Filter FilterMode
	// BranchPredictor names the direction predictor (default "tagescl").
	BranchPredictor string
	// TrainAtDetect trains the predictor when a mispeculation is detected
	// (at store address resolution) instead of at commit — the §IV-A1
	// ablation. Early training can learn stores that are not the youngest
	// conflicting one (Fig. 3d) and paths that never commit.
	TrainAtDetect bool
	// MaxCycles aborts runaway simulations (default 400M).
	MaxCycles uint64
	// WatchdogCycles is the zero-retirement budget: if no micro-op commits
	// for this many cycles the run aborts with a DeadlockError carrying a
	// pipeline-state dump (default 2M — two orders of magnitude above the
	// longest legitimate commit stall, a DRAM-latency chain). The check is
	// quantised to watchdogPeriod cycles.
	WatchdogCycles uint64
	// Verify, when non-nil, receives every retiring micro-op (see
	// CommitEvent in verify.go) so an external oracle can check the
	// architectural retirement stream; a non-nil return aborts the run with
	// that error. Nil (the default) costs the hot path nothing. Options
	// with a Verify callback are not comparable — pool cores by
	// Options.Key() instead.
	Verify CommitCheck
}

// DefaultOptions returns the options every headline experiment uses.
func DefaultOptions() Options {
	return Options{Filter: FilterFwd, BranchPredictor: "tagescl"}
}

// HistCap is the divergent-branch history register capacity, covering
// MDP-TAGE's 2000-branch histories.
const HistCap = 2048

type entryState uint8

const (
	stDispatched entryState = iota
	stIssued
)

// neverRetry marks an entry whose wake-up has no computable time bound; it
// is woken only by a memory event (see memEvent).
const neverRetry = ^uint64(0)

// wheelSize is the number of timing-wheel buckets (a power of two and a
// multiple of 64). A park whose retryAt lies at most wheelSize cycles ahead
// wakes on exactly that cycle; a farther one wakes a lap early and is
// re-filed (see file). It covers a DRAM round trip on every shipped machine.
const wheelSize = 256

// waitCause is why an evaluated entry did not issue: the decision the issue
// scan made when it last filed the entry (see robEntry.cause).
type waitCause uint8

const (
	waitNone      waitCause = iota // not evaluated since dispatch
	waitOperand                    // a register source is not ready
	waitGate                       // MDP gate on one store (Distance, StoreSeq)
	waitGateAll                    // MDP gate on a set of older stores (WaitAll, Vector)
	waitStoreSets                  // Store Sets serialisation behind an older store
	waitForward                    // forwarding stall: the covering store is not done
	waitDrain                      // partial overlap: a store must drain (SQ or SB)
	waitPort                       // port-limited (structural)
)

var waitCauseNames = [...]string{
	"not evaluated", "operand", "MDP gate (one store)", "MDP gate (WaitAll/Vector)",
	"Store Sets serialisation", "forwarding stall", "partial-overlap drain", "port-limited",
}

func (w waitCause) String() string { return waitCauseNames[w] }

// memoryBound reports whether a wait for w parks memory-bound: only tryLoad's
// store-search outcomes, a forwarding stall and a partial-overlap drain, can
// change with a memory event (see setRetry).
func (w waitCause) memoryBound() bool { return w == waitForward || w == waitDrain }

// robEntry is one in-flight micro-op.
type robEntry struct {
	inst   *isa.Inst
	seq    uint64
	kind   isa.Kind // cached inst.Kind (avoids the pointer chase at issue)
	state  entryState
	doneAt uint64 // completion cycle, valid once issued

	srcASeq, srcBSeq uint64 // producing sequence numbers (0 = ready)

	// Park state (see setRetry): while cycle < retryAt the entry's blocking
	// condition provably cannot clear. A memory event ends a memory-bound
	// park by zeroing retryAt (see memEvent).
	retryAt uint64

	// Wait record, written with the park state whenever an evaluation leaves
	// the entry unissued: why it waits, and the unissued producer or store
	// whose dependents row holds it (0 if none; see register, wakeDeps).
	cause  waitCause
	waitOn uint64

	// Memory ops.
	branchCount uint64 // decode-time divergent-branch counter copy
	storeCount  uint64 // stores dispatched before this op (loads)
	storeIndex  uint64 // global store allocation index (stores)
	// loadIndex is the load allocation index at dispatch: a load's own LQ
	// index, and for any other op that of the first load younger than it.
	loadIndex uint64

	// Stores.
	addrResolved bool
	addrDoneAt   uint64
	ssWaitSeq    uint64 // Store Sets same-set serialisation

	// Loads.
	pred            mdp.Prediction
	waited          bool
	waitAddr        uint64 // footprint of the store the load waited for
	waitSize        uint8
	waitValid       bool
	fwdFrom         uint64 // forwarding store seq (0 = none)
	fwdStoreIndex   uint64 // store allocation index of the forwarder (SVW)
	svwSSN          uint64 // committed-store count at execute (SVW)
	executed        bool
	executedAt      uint64
	violated        bool
	violStore       mdp.StoreInfo
	trainedAtDetect bool
}

// lineBuckets is the size of the per-cache-line occupancy filters. Each
// filter counts, per 64-byte-line hash bucket, how many queue entries touch
// that line; a zero bucket proves no entry overlaps an address in it, so the
// associated queue scan can be skipped entirely. Counting (not set-bit)
// filters support exact removal at commit/squash/drain.
const (
	lineBits    = 10
	lineBuckets = 1 << lineBits
)

type lineFilter [lineBuckets]uint16

// lineBucket maps a line to its filter bucket by a multiplicative
// (Fibonacci) hash: the low line bits alone would put every line of a
// power-of-two stride into a few buckets.
func lineBucket(line uint64) uint64 {
	return line * 0x9e3779b97f4a7c15 >> (64 - lineBits)
}

func (f *lineFilter) add(addr uint64, size uint8) {
	if size == 0 {
		return
	}
	for l := addr >> 6; l <= (addr+uint64(size)-1)>>6; l++ {
		f[lineBucket(l)]++
	}
}

func (f *lineFilter) remove(addr uint64, size uint8) {
	if size == 0 {
		return
	}
	for l := addr >> 6; l <= (addr+uint64(size)-1)>>6; l++ {
		f[lineBucket(l)]--
	}
}

// mayOverlap reports whether any tracked footprint might overlap
// [addr, addr+size). False is exact (no overlap possible): two overlapping
// footprints share a byte, hence that byte's line bucket.
func (f *lineFilter) mayOverlap(addr uint64, size uint8) bool {
	if size == 0 {
		return false
	}
	for l := addr >> 6; l <= (addr+uint64(size)-1)>>6; l++ {
		if f[lineBucket(l)] != 0 {
			return true
		}
	}
	return false
}

// storeSlot is one store-ring slot: a store's seq, allocation index and
// footprint, and whether its address has resolved, mirrored from its
// robEntry so that searches test the slots alone and read a robEntry only
// for an in-flight store that matches; and, once the committed store's drain
// has started, the cycle the drain completes.
type storeSlot struct {
	seq        uint64
	storeIndex uint64
	addr       uint64
	size       uint8
	resolved   bool
	drainedAt  uint64
}

// lqSlot is one load-queue slot: an in-flight load's seq and footprint.
type lqSlot struct {
	seq  uint64
	addr uint64
	size uint8
}

// Core is a single simulated out-of-order core.
type Core struct {
	cfg  config.Machine
	opt  Options
	mem  *cache.Hierarchy
	pred mdp.Predictor

	// br holds the bound trace's branch outcomes: fetch reads a branch's
	// misprediction from it at first fetch (see bindTrace). bp is the
	// prediction unit a WarmContext leaves advanced over its warm stream —
	// the next run's outcomes continue it — and nil otherwise.
	br *bpred.Outcomes
	bp *bpred.Unit

	// needOracle gates the exact SQ scan feeding LoadInfo's oracle fields:
	// only predictors declaring NeedsOracle (the Ideal oracle) consume them.
	needOracle bool

	// The history registers are views of the bound trace's divergent-branch
	// entries (pre.DivEntries), which hold every micro-op's history once:
	// decodeHist advances at fetch and seeks back on a squash, commitHist
	// advances at commit. scratchHist seeks to a load's branchCount to give
	// its exact history to detect-time training (the §IV-A1 ablation); it
	// carries no registered folds, so a seek is O(1).
	decodeHist  *histutil.Reg
	commitHist  *histutil.Reg
	scratchHist *histutil.Reg

	tr *trace.Trace
	// pre holds the trace's divergent-branch history entries, shared
	// across every run of the trace.
	pre *trace.Prefixes

	// ROB ring: entries hold seqs [headSeq, tailSeq). The ring is sized to
	// the next power of two above the architectural capacity (robCap) so
	// entry lookup is a mask instead of a modulo.
	rob     []robEntry
	robMask uint64
	robCap  uint64
	headSeq uint64
	tailSeq uint64

	lastWriter [isa.NumRegs]uint64

	iqCount int

	// st is the store ring: a fixed-capacity ring of every store from
	// dispatch until it drains, oldest first. Its sbLen committed slots (the
	// store buffer) are at the head, stHead, and its sqLen in-flight slots
	// (the store queue) follow; commit moves the boundary, a drain frees
	// from the head and a squash truncates the tail. Slot i holds store
	// allocation index stAt(0).storeIndex+i, since stores dispatch, commit,
	// drain and squash in order. sbStarted counts the leading committed
	// slots whose drain has started (starts happen in order from the front,
	// so they form a prefix).
	st        []storeSlot
	stHead    int
	stMask    int
	sbLen     int
	sqLen     int
	sbStarted int

	// Per-cache-line occupancy filters over the in-flight footprints: the
	// store ring's slots and the executed uncommitted loads. They gate the
	// associative searches in memdep.go.
	stLines lineFilter
	ldLines lineFilter

	// lq is a fixed-capacity ring of the in-flight loads, oldest first: load
	// allocation index i lives in slot i&lqMask, and lqFirst is the index of
	// the oldest (loads dispatch, commit and squash in order). lqExec marks
	// the slots of executed loads — the only candidates a resolving store
	// must check; lqSpan is the number of slots per lqExec word.
	lq      []lqSlot
	lqExec  []uint64
	lqFirst uint64
	lqLen   int
	lqMask  uint64
	lqSpan  uint64

	// SVW state (Options.Filter == FilterSVW).
	svw             *ssbf
	storeRing       []committedStore
	committedStores uint64

	cycle uint64

	// memEpoch counts the events that can change the outcome of a blocked
	// memory-dependent issue check (a store resolving its address, a
	// store-buffer entry freeing, a squash; see memEvent), each of which ends
	// every memory-bound park.
	memEpoch uint64

	// Wake-ordered issue state, one bit per ROB ring slot (see issueStage):
	//   - awake: the slots the issue scan evaluates — set at dispatch, kept
	//     by port-limited entries, and set by the wake sources below;
	//   - memParked: the slots of memory-bound parks, ORed into awake, their
	//     parks ended and cleared at every memory event;
	//   - wheel: a timing wheel of wheelSize bitsets (len(awake) words
	//     each); bucket t%wheelSize holds the slots to wake at cycle t, and
	//     wheelSum has one bit per non-empty bucket. wheelAt is the last
	//     cycle whose bucket has fired, so the buckets stand for the cycles
	//     (wheelAt, wheelAt+wheelSize].
	// Bits are hints, not state: the scan re-checks each woken entry's park
	// and re-files one that still holds, so a stale bit (left by a committed,
	// squashed or re-parked occupant, or an early lap) costs one check
	// and never an evaluation.
	awake     []uint64
	memParked []uint64
	wheel     []uint64
	wheelSum  [wheelSize / 64]uint64
	wheelAt   uint64
	// deps is a dependents matrix: row p (len(awake) words) holds the slots
	// of entries parked until the micro-op in slot p issues — register
	// consumers of a producer, and loads and stores ordered behind a store —
	// which files them at its completion cycle (see waitSources,
	// waitStoreDone, wakeDeps). depSum[p] has bit b set when row p's words
	// [b<<sumShift, (b+1)<<sumShift) may be non-zero (sumShift is 0 unless
	// a row has more than 64 words).
	deps     []uint64
	depSum   []uint64
	sumShift uint
	// slotSpan is the number of ring slots per bitset word: 64, or the whole
	// ring when it is narrower.
	slotSpan uint64

	// skipped counts the cycles of the current run the loop jumped over;
	// evals the entries the issue scan evaluated (woken entries whose park
	// still held and were only re-filed are not counted); probes the
	// executed load-queue slots the violation search visited; depWords the
	// dependents-row words wakeDeps visited.
	skipped, evals, probes, depWords uint64

	// readyAt[seq&robMask] mirrors the slot's issue state compactly so
	// producer-readiness checks touch a 4KB array instead of a ~100-byte
	// ROB entry per probe: 0 while unissued, doneAt+1 once issued (the +1
	// keeps a cycle-0 completion distinguishable from "not issued").
	// Dispatch rewrites the slot, so stale values from committed or
	// squashed occupants are never read for an in-flight sequence.
	readyAt []uint64

	// seqBase is the seq of the bound trace's first micro-op. Fetch,
	// dispatch, commit and squash move seqs and trace indices together, so
	// the micro-op with seq s is trace index s−seqBase (see traceIdx): the
	// next to fetch is tailSeq's, the next to commit headSeq's. It is 1
	// after Reset and headSeq at a WarmContext boundary.
	seqBase uint64

	// Fetch state.
	maxFetched      int // highest trace index ever fetched (history dedup)
	fetchBlockedTil uint64
	fetchStallSeq   uint64 // unresolved mispredicted branch (0 = none)

	// fetchStores counts the stores before the next micro-op to fetch, as
	// decodeHist.Count() does the divergent branches; a squash rewinds both
	// to the violating load's copies.
	fetchStores uint64

	// Verification state, allocated only when opt.Verify != nil (see
	// verify.go): per-ROB-slot provider captures, the per-byte last-drained-
	// store map, the reused commit event, and the first checker error.
	vprov     [][]int32
	vdrained  map[uint64]int32
	vev       CommitEvent
	verifyErr error

	// base snapshots the cumulative component counters (clock, branch
	// predictor, MDP traffic, cache hierarchy) at a warm-up/measure
	// boundary; finalizeStats subtracts it so a warm-started run reports
	// the measured slice alone. Zero for ordinary runs (see WarmContext).
	base warmBase

	// fiFwdFlip is the per-run fault-injection decision for
	// faultinject.FaultFwdFlip: the §IV-A1 forwarding-filter condition is
	// flipped so every conflicting load is wrongly deemed already-correct
	// (no violation is ever flagged). Exists to prove the verification
	// oracle detects a silent forwarding bug.
	fiFwdFlip bool

	run stats.Run
}

func pow2ceil(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// New builds a core for the given machine, predictor and options.
func New(cfg config.Machine, pred mdp.Predictor, opt Options) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.BranchPredictor == "" {
		opt.BranchPredictor = "tagescl"
	}
	if opt.MaxCycles == 0 {
		opt.MaxCycles = 400_000_000
	}
	if opt.WatchdogCycles == 0 {
		opt.WatchdogCycles = 2_000_000
	}
	c := &Core{
		cfg:         cfg,
		opt:         opt,
		mem:         cache.New(cfg),
		decodeHist:  histutil.NewReg(HistCap),
		commitHist:  histutil.NewReg(HistCap),
		scratchHist: histutil.NewReg(HistCap),
		rob:         make([]robEntry, pow2ceil(cfg.ROB)),
		robCap:      uint64(cfg.ROB),
		st:          make([]storeSlot, pow2ceil(2*cfg.SQ)),
		lq:          make([]lqSlot, pow2ceil(cfg.LQ)),
	}
	c.readyAt = make([]uint64, len(c.rob))
	c.robMask = uint64(len(c.rob) - 1)
	words := (len(c.rob) + 63) / 64
	c.awake = make([]uint64, words)
	c.memParked = make([]uint64, words)
	c.wheel = make([]uint64, wheelSize*words)
	c.deps = make([]uint64, len(c.rob)*words)
	c.depSum = make([]uint64, len(c.rob))
	for words>>c.sumShift > 64 {
		c.sumShift++
	}
	c.slotSpan = uint64(min(64, len(c.rob)))
	c.lqExec = make([]uint64, (len(c.lq)+63)/64)
	c.lqMask = uint64(len(c.lq) - 1)
	c.lqSpan = uint64(min(64, len(c.lq)))
	c.stMask = len(c.st) - 1
	if opt.Filter == FilterSVW {
		// NoSQ sizes the SSBF to cover the vulnerability window of the
		// largest in-flight load population with headroom.
		c.svw = newSSBF(1024, 2)
		c.storeRing = make([]committedStore, 4096)
	}
	if opt.Verify != nil {
		c.vprov = make([][]int32, len(c.rob))
		c.vdrained = make(map[uint64]int32)
	}
	if err := c.Reset(pred); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the core to its just-constructed state with a fresh
// predictor bound, so experiment drivers can reuse one core (ROB, queues,
// histories, cache arrays) across runs instead of reallocating ~5MB per
// simulation; New finishes with it, so the per-run state is set in one
// place. It checks the direction predictor's name and drops any held branch
// unit, so the next run takes its outcomes from the trace's memo, and binds
// the MDP to the history registers in place of the previous one's folds. A
// reset core behaves bit-identically to a newly built one (verified by
// TestResetCoreMatchesFresh).
func (c *Core) Reset(pred mdp.Predictor) error {
	if err := bpred.CheckDir(c.opt.BranchPredictor); err != nil {
		return err
	}
	c.mem.Reset()
	c.bindHist(nil)
	c.br, c.bp = nil, nil
	c.pred = pred
	no, ok := pred.(interface{ NeedsOracle() bool })
	c.needOracle = ok && no.NeedsOracle()
	c.decodeHist.DropFolds()
	c.commitHist.DropFolds()
	pred.Bind(c.decodeHist, c.commitHist)
	c.tr, c.pre = nil, nil
	c.headSeq, c.tailSeq, c.seqBase = 1, 1, 1
	c.lastWriter = [isa.NumRegs]uint64{}
	c.iqCount = 0
	c.lqFirst, c.lqLen = 0, 0
	clear(c.lqExec)
	c.stHead, c.sbLen, c.sqLen, c.sbStarted = 0, 0, 0, 0
	c.stLines = lineFilter{}
	c.ldLines = lineFilter{}
	clear(c.readyAt)
	c.clearWake()
	if c.opt.Filter == FilterSVW {
		for i := range c.svw.entries {
			c.svw.entries[i] = ssbfEntry{}
		}
		for i := range c.storeRing {
			c.storeRing[i] = committedStore{}
		}
	}
	if c.opt.Verify != nil {
		// The callback (and any oracle behind it) carries over; callers
		// resetting a verified core must bind a checker for the new trace
		// themselves. sim never pools verify-enabled cores.
		clear(c.vdrained)
		for i := range c.vprov {
			c.vprov[i] = c.vprov[i][:0]
		}
	}
	c.verifyErr = nil
	c.committedStores = 0
	c.cycle = 0
	c.wheelAt = 0
	c.memEpoch = 0
	c.maxFetched, c.fetchStores = 0, 0
	c.fetchBlockedTil, c.fetchStallSeq = 0, 0
	c.base = warmBase{}
	c.run = stats.Run{}
	return nil
}

func (c *Core) entry(seq uint64) *robEntry {
	return &c.rob[seq&c.robMask]
}

func (c *Core) robFull() bool { return c.tailSeq-c.headSeq >= c.robCap }

func (c *Core) robEmpty() bool { return c.tailSeq == c.headSeq }

// traceIdx returns the trace index of the micro-op with sequence number seq.
func (c *Core) traceIdx(seq uint64) int { return int(seq - c.seqBase) }

// Store-ring accessors. stAt(0) is the oldest store, the store buffer's
// front (next to drain); stAt(i) for i < sbLen is a committed store. sqAt
// views the in-flight part: sqAt(0) is the oldest in-flight store and
// sqAt(sqLen) the next slot to fill.
func (c *Core) stAt(i int) *storeSlot { return &c.st[(c.stHead+i)&c.stMask] }

func (c *Core) sqAt(i int) *storeSlot { return c.stAt(c.sbLen + i) }

// producerReady reports whether the producing micro-op's value is available.
func (c *Core) producerReady(seq uint64) bool {
	if seq == 0 || seq < c.headSeq {
		return true // architectural or committed
	}
	d := c.readyAt[seq&c.robMask]
	return d != 0 && c.cycle >= d-1
}

// srcsReady reports whether both register sources are available.
func (c *Core) srcsReady(e *robEntry) bool {
	return c.producerReady(e.srcASeq) && c.producerReady(e.srcBSeq)
}

// srcReadyAt bounds the first cycle at which the values of producers a and
// b (0 = none) can both be available (0 = ready now). It serves the register
// waits whose unready producers have all issued (see waitSources) and the
// done bound of a store (storeDoneBound). Each producer's bound is exact or
// plain: an issued producer's doneAt (immutable), else its plainBound.
func (c *Core) srcReadyAt(a, b uint64) uint64 {
	return max(c.producerWake(a), c.producerWake(b))
}

// producerWake returns srcReadyAt's bound for one producer seq.
func (c *Core) producerWake(seq uint64) uint64 {
	if seq < c.headSeq {
		return 0 // none, architectural or committed
	}
	pos := seq & c.robMask
	if d := c.readyAt[pos]; d != 0 {
		return d - 1
	}
	return c.plainBound(&c.rob[pos])
}

// plainBound is a lower bound on the completion of the unissued producer p.
// p is older than any entry waiting on it, so this cycle's scan has already
// evaluated it (or it was parked), and it cannot issue before the next
// cycle. ALU and branch latencies are clamped to ≥1 and a load completes no
// earlier than the L1D hit latency (config.Validate requires it positive),
// giving cycle+2; a store completes at max(address done, issue cycle), so
// it can complete in the cycle it issues (Nops issue at dispatch), giving
// cycle+1.
func (c *Core) plainBound(p *robEntry) uint64 {
	if p.kind == isa.Store {
		return c.cycle + 1
	}
	return c.cycle + 2
}

// waitSources parks e, whose register sources a and b (0 = none) are not
// both ready. While one of them is an unissued producer, e cannot issue
// before that producer does, so rather than filing e at a bound that the
// producer's unknown latency keeps loose — which re-wakes a whole pointer
// chase each time its head completes — e registers in the dependents row
// of the youngest such producer, and the producer's issue files it at the
// exact completion cycle. Its retryAt until then is the producer's plain
// bound, which that completion never precedes.
func (c *Core) waitSources(e *robEntry, a, b uint64) {
	p := uint64(0)
	for _, s := range [2]uint64{a, b} {
		if s > p && s >= c.headSeq && c.readyAt[s&c.robMask] == 0 {
			p = s
		}
	}
	if p == 0 {
		c.setRetry(e, c.srcReadyAt(a, b), waitOperand)
		return
	}
	c.register(e, p, c.plainBound(&c.rob[p&c.robMask]), waitOperand)
}

// waitStoreDone parks e until the older store st, which is not done, can be
// done: e is a load whose MDP gate st blocks (cause waitGate or
// waitGateAll) or a store serialised behind st (Store Sets; waitStoreSets).
// An issued st parks e at its exact doneAt. An unissued one takes e into its
// dependents row: its issue (phase 2 of tryStore) files e at its completion,
// the first cycle the wait can clear, and e's retryAt until then is st's
// plain done bound.
func (c *Core) waitStoreDone(e, st *robEntry, cause waitCause) {
	at := c.storeDoneBound(st)
	if st.state == stIssued {
		c.setRetry(e, at, cause)
		return
	}
	c.register(e, st.seq, at, cause)
}

// register parks e time-bound until at, in the dependents row of the
// unissued producer p, whose issue files it at p's completion; at must not
// exceed that completion. It records the wait as cause, on p.
func (c *Core) register(e *robEntry, p, at uint64, cause waitCause) {
	e.retryAt = at
	e.cause, e.waitOn = cause, p
	pos, pp := e.seq&c.robMask, p&c.robMask
	c.deps[pp*uint64(len(c.awake))+pos>>6] |= 1 << (pos & 63)
	c.depSum[pp] |= 1 << (pos >> 6 >> c.sumShift)
}

// wakeDeps runs when the micro-op p in ring slot pos issues: each entry
// whose wait record names p now has an exact bound on that wait, p.doneAt,
// so its time-bound park is raised to it and filed there, and it leaves the
// row (its waitOn clears; the cause stands). A store can complete in the
// cycle it issues, whose wheel bucket has already fired: such an entry is
// set awake instead, and the live scan reaches it (it is younger than p) in
// this same scan. Only register writes a non-zero waitOn, and every other
// filing (setRetry, a port-limited evaluation) clears it, so the record
// names the one row whose wake an entry relies on; the bit of an entry
// since filed elsewhere, or of a squashed occupant, is stale and dropped.
func (c *Core) wakeDeps(p *robEntry, pos uint64) {
	sum := c.depSum[pos]
	c.depSum[pos] = 0
	row := c.deps[pos*uint64(len(c.awake)):]
	for ; sum != 0; sum &= sum - 1 {
		lo := uint64(bits.TrailingZeros64(sum)) << c.sumShift
		for i := lo; i < lo+1<<c.sumShift; i++ {
			c.depWords++
			d := row[i]
			row[i] = 0
			for ; d != 0; d &= d - 1 {
				cpos := i*64 + uint64(bits.TrailingZeros64(d))
				ce := &c.rob[cpos]
				if ce.waitOn != p.seq {
					continue
				}
				ce.retryAt = max(ce.retryAt, p.doneAt)
				ce.waitOn = 0
				if ce.retryAt <= c.cycle {
					c.awake[cpos>>6] |= 1 << (cpos & 63)
				} else {
					c.file(cpos, ce.retryAt)
				}
			}
		}
	}
}

// storeDoneBound bounds the first cycle at which storeDone(st) can become
// true, for an st that is not done now: exact (doneAt) for an issued st,
// else plain. An MDP gate or Store Sets wait takes it as its retryAt
// (waitStoreDone), and tryLoad's forwarding stall as its memory-bound one.
func (c *Core) storeDoneBound(st *robEntry) uint64 {
	if st.state == stIssued {
		return st.doneAt
	}
	if !st.addrResolved {
		// The address resolves no earlier than the cycle its register is
		// ready, and the store completes no earlier than the cycle after.
		return max(c.cycle+1, c.srcReadyAt(st.srcASeq, 0)+1)
	}
	// Resolved but unissued: phase 2 (data ready → issue) is port-free, so
	// the store issues the first cycle its data is ready, completing no
	// earlier than max(addr done, data ready, next cycle).
	return max(c.cycle+1, st.addrDoneAt, c.srcReadyAt(st.srcBSeq, 0))
}

// setRetry parks e until the cycle at (an exclusive lower bound on its
// wake-up), records the wait as cause (in no dependents row), and files it
// where a wake will find it. at must never exceed the first cycle at which
// the entry's blocking evaluation could change (for a memory-bound park:
// without a memory event in between) — parks are an optimisation, not a
// scheduling policy, and an overshoot would change timing.
//
// The wake class follows from the cause (waitCause.memoryBound). tryLoad's
// store-search outcomes, a forwarding stall and a partial-overlap drain, are
// the only waits a memory event can change: they park memory-bound, in
// memParked — whose next memory event ends the park — and, unless the drain
// has no time bound (neverRetry), in the wheel. Every other park is
// time-bound and filed in the wheel bucket of at alone, which no memory
// event ends, and that is what makes it cheap: a register wait changes
// nothing but the park, and an MDP gate or Store Sets wait depends only on
// whether older stores are done, which no memory event changes (see
// gateBlocked). Waits on an unissued producer or an unissued gating store
// bypass setRetry and register in its dependents row (see register).
func (c *Core) setRetry(e *robEntry, at uint64, cause waitCause) {
	e.retryAt = at
	e.cause, e.waitOn = cause, 0
	pos := e.seq & c.robMask
	if cause.memoryBound() {
		c.memParked[pos>>6] |= 1 << (pos & 63)
	}
	if at != neverRetry {
		c.file(pos, at)
	}
}

// parked reports whether e's park still holds this cycle.
func (c *Core) parked(e *robEntry) bool { return c.cycle < e.retryAt }

// memEvent advances memEpoch — a store resolved its address, a store-buffer
// entry freed, or a squash rewound the ROB — and ends every memory-bound
// park: each entry whose memParked bit it clears gets retryAt 0 and is set
// awake. The issue scan reads awake live, so a younger entry woken mid-scan
// is evaluated in the same scan.
func (c *Core) memEvent() {
	c.memEpoch++
	for i, w := range c.memParked {
		c.awake[i] |= w
		c.memParked[i] = 0
		for ; w != 0; w &= w - 1 {
			c.rob[i*64+bits.TrailingZeros64(w)].retryAt = 0
		}
	}
}

// file puts ring slot pos in the wheel bucket of cycle at (> wheelAt). A
// bucket fires on the first cycle after wheelAt with its residue, so a bound
// beyond the horizon wheelAt+wheelSize wakes the entry one or more laps
// early, and the scan's park check re-files it.
func (c *Core) file(pos, at uint64) {
	b := at & (wheelSize - 1)
	c.wheel[b*uint64(len(c.awake))+pos>>6] |= 1 << (pos & 63)
	c.wheelSum[b>>6] |= 1 << (b & 63)
}

// fire moves wheel bucket b into awake and empties it.
func (c *Core) fire(b uint64) {
	n := uint64(len(c.awake))
	row := c.wheel[b*n : (b+1)*n]
	for i, w := range row {
		c.awake[i] |= w
		row[i] = 0
	}
	c.wheelSum[b>>6] &^= 1 << (b & 63)
}

// fireWheel fires the buckets of every cycle in (wheelAt, cycle]: one bit
// test when the loop stepped a single cycle, else a summary search per
// non-empty bucket (a dead-cycle jump never passes one).
func (c *Core) fireWheel() {
	if c.cycle == c.wheelAt+1 {
		if b := c.cycle & (wheelSize - 1); c.wheelSum[b>>6]&(1<<(b&63)) != 0 {
			c.fire(b)
		}
	} else {
		for t := c.wheelNext(); t <= c.cycle; t = c.wheelNext() {
			c.fire(t & (wheelSize - 1))
		}
	}
	c.wheelAt = c.cycle
}

// bucketCycle returns the cycle wheel bucket b stands for.
func (c *Core) bucketCycle(b uint64) uint64 {
	return c.wheelAt + 1 + (b-c.wheelAt-1)&(wheelSize-1)
}

// wheelNext returns the earliest cycle with a non-empty wheel bucket, or
// neverRetry if the wheel is empty.
func (c *Core) wheelNext() uint64 {
	const words = wheelSize / 64
	s := (c.wheelAt + 1) & (wheelSize - 1)
	i0 := int(s >> 6)
	if w := c.wheelSum[i0] >> (s & 63); w != 0 {
		return c.wheelAt + 1 + uint64(bits.TrailingZeros64(w))
	}
	for k := 1; k <= words; k++ {
		i := (i0 + k) % words
		if w := c.wheelSum[i]; w != 0 {
			return c.bucketCycle(uint64(i*64 + bits.TrailingZeros64(w)))
		}
	}
	return neverRetry
}

// nextAwake returns the offset from headSeq of the first awake in-flight
// slot at offset off or later, or n (the in-flight count) if there is none.
// It reads the bitset live.
func (c *Core) nextAwake(off, n uint64) uint64 {
	return nextBit(c.awake, c.headSeq, c.robMask, c.slotSpan, off, n)
}

// nextBit returns the first offset in [off, n) whose ring slot
// (base+offset)&mask has its bit set in set, or n if there is none. span is
// the number of ring slots per set word: 64, or the whole ring when it is
// narrower.
func nextBit(set []uint64, base, mask, span, off, n uint64) uint64 {
	for off < n {
		pos := (base + off) & mask
		if w := set[pos>>6] >> (pos & 63); w != 0 {
			return min(off+uint64(bits.TrailingZeros64(w)), n)
		}
		off += span - pos&(span-1)
	}
	return n
}

// clearWake empties the awake, memory-parked and wheel sets and the
// dependents matrix.
func (c *Core) clearWake() {
	clear(c.awake)
	clear(c.memParked)
	clear(c.wheel)
	c.wheelSum = [wheelSize / 64]uint64{}
	clear(c.deps)
	clear(c.depSum)
}

// Run simulates the full stream and returns the measured counters.
func (c *Core) Run(tr *trace.Trace) (*stats.Run, error) {
	return c.RunContext(context.Background(), tr)
}

// watchdogPeriod quantises the cycle loop's slow-path checks (context
// cancellation, the zero-retirement watchdog): they run every this many
// cycles, keeping the per-cycle cost to one mask test. Dead-cycle jumps
// never cross a multiple of it, so the checks land on the same cycles as in
// a loop that steps every cycle.
const watchdogPeriod = 4096

// faultHorizon bounds the cycle at which an injected pipeline fault fires.
// It is small enough that any full-length run reaches it, so a fault plan's
// per-run decision ("this config panics") reliably comes true.
const faultHorizon = 512

// RunContext simulates the full stream and returns the measured counters.
// The run aborts (with a wrapped ctx error) shortly after ctx is cancelled
// or its deadline passes, and aborts with a DeadlockError when the
// zero-retirement watchdog sees no commit for Options.WatchdogCycles.
//
// A cycle in which no stage acted is dead, and so is every following cycle
// until the next pending event: the loop jumps the clock to just before it
// (see skipDeadCycles).
func (c *Core) RunContext(ctx context.Context, tr *trace.Trace) (*stats.Run, error) {
	if err := c.bindTrace(tr); err != nil {
		return nil, err
	}
	n := tr.Len()
	// Fault injection decides per run, before the loop, whether and when to
	// misbehave — the steady state pays two integer compares per cycle.
	var fiPanicAt, fiStallAt uint64
	c.fiFwdFlip = false
	if p := faultinject.Active(); p != nil {
		key := tr.Name + "/" + c.cfg.Name + "/" + c.pred.Name()
		if p.Should(faultinject.FaultPanic, key) {
			fiPanicAt = 1 + p.Point(faultinject.FaultPanic, key, faultHorizon)
		}
		if p.Should(faultinject.FaultStall, key) {
			fiStallAt = 1 + p.Point(faultinject.FaultStall, key, faultHorizon)
		}
		c.fiFwdFlip = p.Should(faultinject.FaultFwdFlip, key)
	}
	// A jump never lands past the MaxCycles abort or an injected fault.
	jumpLimit := min(c.opt.MaxCycles, neverRetry-1) + 1
	for _, at := range [...]uint64{fiPanicAt, fiStallAt} {
		if at != 0 {
			jumpLimit = min(jumpLimit, at)
		}
	}
	c.verifyErr = nil
	c.skipped, c.evals, c.probes, c.depWords = 0, 0, 0, 0
	lastCommitted := c.run.Committed
	lastProgress := c.cycle
	for c.traceIdx(c.headSeq) < n {
		c.cycle++
		if c.cycle > c.opt.MaxCycles {
			return nil, &DeadlockError{
				Cycle: c.cycle, CommitIdx: c.traceIdx(c.headSeq), TraceLen: n,
				Dump: c.stateDump(),
			}
		}
		if fiPanicAt != 0 && c.cycle == fiPanicAt {
			panic(fmt.Sprintf("faultinject: injected panic in cycle loop at cycle %d (%s/%s/%s)",
				c.cycle, c.run.App, c.run.Machine, c.run.Predictor))
		}
		stepped := fiStallAt == 0 || c.cycle < fiStallAt
		acted := false
		if stepped {
			// Every stage runs; a stage reports whether it acted (see
			// skipDeadCycles).
			acted = c.commitStage()
			acted = c.drainStoreBuffer() || acted
			acted = c.issueStage() || acted
			acted = c.fetchStage() || acted
		}
		if c.verifyErr != nil {
			return nil, c.verifyErr
		}
		c.run.ROBOccupancySum += c.tailSeq - c.headSeq
		c.run.SQOccupancySum += uint64(c.sqLen)
		if c.cycle&(watchdogPeriod-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("pipeline: run aborted at cycle %d (commit index %d/%d): %w",
					c.cycle, c.traceIdx(c.headSeq), n, err)
			}
			if c.run.Committed != lastCommitted {
				lastCommitted = c.run.Committed
				lastProgress = c.cycle
			} else if c.cycle-lastProgress >= c.opt.WatchdogCycles {
				return nil, &DeadlockError{
					Cycle: c.cycle, Budget: c.opt.WatchdogCycles,
					CommitIdx: c.traceIdx(c.headSeq), TraceLen: n,
					Dump: c.stateDump(),
				}
			}
		}
		if stepped && !acted {
			c.skipDeadCycles(jumpLimit)
		}
	}
	c.finalizeStats()
	// Return a copy: a pointer into the Core would keep the whole simulator
	// (trace, ROB, prefix arrays) reachable for as long as the caller holds
	// the result — callers memoise results across hundreds of runs.
	out := c.run
	return &out, nil
}

// firstPredicted is the first trace index fetch predicts. A branch is
// predicted at its first fetch, detected as an index beyond maxFetched; that
// starts at 0, so a branch at index 0 is never predicted or counted.
const firstPredicted = 1

// bindTrace binds tr for a run: its prefixes, its branch outcomes and a new
// row. The outcomes come from the trace's memo for a fresh unit, or — after
// a WarmContext — from a pass of the held unit, which continues it.
func (c *Core) bindTrace(tr *trace.Trace) error {
	c.tr, c.pre = tr, tr.Pre()
	c.bindHist(c.pre.DivEntries)
	if c.bp != nil {
		c.br = c.bp.Pass(tr.Insts, firstPredicted)
	} else {
		br, err := tr.BranchOutcomes(c.opt.BranchPredictor, firstPredicted)
		if err != nil {
			return err
		}
		c.br = br
	}
	c.run = stats.Run{
		App:       tr.Name,
		Predictor: c.pred.Name(),
		Machine:   c.cfg.Name,
	}
	return nil
}

// skipDeadCycles runs after a cycle in which no stage acted — no commit,
// issue, dispatch, store-buffer drain start or free, memory event (store
// address resolution, squash), fetch redirect or stall change; the cycle
// did nothing but re-park blocked entries. Until the next
// pending event every later cycle would act the same (not at all), so the
// clock jumps to just before the earliest of:
//
//   - the next non-empty wheel bucket: every parked entry with a time bound
//     is filed at or before its retryAt, and without a memory event
//     nothing else wakes one; if an entry is awake there is no jump
//     (port-limited entries never reach here: their cycle issued something);
//   - the ROB head's doneAt, if it has issued but not completed (a completed
//     head that did not commit is waiting on a full store buffer);
//   - the store-buffer front's drainedAt (every entry's drain has started,
//     or this cycle would have started one);
//   - fetchBlockedTil, while fetch is blocked (an unresolved mispredicted
//     branch unblocks at its issue, covered by the wheel).
//
// The jump stops at the next watchdogPeriod boundary and at limit, and the
// skipped cycles add their unchanged occupancy to the per-cycle sums, so
// every counter matches a loop that steps each cycle.
func (c *Core) skipDeadCycles(limit uint64) {
	if n := c.tailSeq - c.headSeq; c.nextAwake(0, n) < n {
		return
	}
	next := c.wheelNext()
	if !c.robEmpty() {
		if h := c.entry(c.headSeq); h.state == stIssued && h.doneAt > c.cycle {
			next = min(next, h.doneAt)
		}
	}
	if c.sbLen > 0 {
		next = min(next, c.stAt(0).drainedAt)
	}
	if c.fetchBlockedTil > c.cycle {
		next = min(next, c.fetchBlockedTil)
	}
	if next == neverRetry {
		return // nothing pending has a time bound
	}
	next = min(next, limit, (c.cycle|(watchdogPeriod-1))+1)
	if next <= c.cycle+1 {
		return
	}
	k := next - 1 - c.cycle
	c.run.ROBOccupancySum += k * (c.tailSeq - c.headSeq)
	c.run.SQOccupancySum += k * uint64(c.sqLen)
	c.skipped += k
	c.cycle = next - 1
}

// SkippedCycles returns how many cycles of the last run the loop jumped
// over as dead (included in the run's Cycles).
func (c *Core) SkippedCycles() uint64 { return c.skipped }

// IssueEvals returns how many entry evaluations the issue scan performed in
// the last run — the scheduler's unit of work, like SkippedCycles outside
// stats.Run.
func (c *Core) IssueEvals() uint64 { return c.evals }

// ViolationProbes returns how many executed load-queue slots the violation
// search of the last run visited.
func (c *Core) ViolationProbes() uint64 { return c.probes }

// DepRowWords returns how many dependents-row words the last run's issue
// wake-ups visited.
func (c *Core) DepRowWords() uint64 { return c.depWords }

func (c *Core) finalizeStats() {
	// Component counters are cumulative over the core's life; subtracting
	// the warm-up baseline (zero for ordinary runs) scopes them to the
	// measured run. The branch outcomes are the run's own. PathsTracked is a
	// gauge, not a counter — report as is.
	c.run.Cycles = c.cycle - c.base.cycles
	c.run.Branches = c.br.Branches
	c.run.BranchMispredicts = c.br.Mispredicts
	reads, writes := c.pred.Accesses()
	c.run.PredictorReads = reads - c.base.predReads
	c.run.PredictorWrites = writes - c.base.predWrites
	c.run.PathsTracked = uint64(c.pred.Paths())
	c.run.L1DHits = c.mem.L1D.Hits - c.base.l1dHits
	c.run.L1DMisses = c.mem.L1D.Misses - c.base.l1dMisses
	c.run.L2Hits = c.mem.L2.Hits - c.base.l2Hits
	c.run.L2Misses = c.mem.L2.Misses - c.base.l2Misses
	c.run.L3Hits = c.mem.L3.Hits - c.base.l3Hits
	c.run.L3Misses = c.mem.L3.Misses - c.base.l3Misses
}

// Predictor exposes the bound predictor (for experiment post-processing,
// e.g. PHAST's conflict-length histogram).
func (c *Core) Predictor() mdp.Predictor { return c.pred }

// bindHist binds the history registers to div at position 0 (nil unbinds
// them, so a reset core holds no trace).
func (c *Core) bindHist(div []histutil.Entry) {
	c.decodeHist.Bind(div)
	c.commitHist.Bind(div)
	c.scratchHist.Bind(div)
}

// histAt returns, in the scratch register, the divergent-branch history of
// a micro-op that k divergent branches precede (its branchCount).
func (c *Core) histAt(k uint64) *histutil.Reg {
	c.scratchHist.Seek(k)
	return c.scratchHist
}
