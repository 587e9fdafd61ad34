package pipeline

import (
	"fmt"
	"math/bits"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/stats"
	"repro/internal/trace"
)

// activity is the state some stage changes whenever a cycle does any work:
// a commit, an issue, a dispatch (tailSeq), a store-buffer drain start, a
// store-buffer free, store address resolution or squash (all three advance
// memEpoch), or a fetch redirect or stall change. A cycle that leaves it
// unchanged did nothing but re-park blocked entries.
type activity struct {
	committed, issued, tailSeq, memEpoch uint64
	fetchBlockedTil, fetchStallSeq       uint64
	sbStarted                            int
}

func activityOf(c *Core) activity {
	return activity{
		committed: c.run.Committed, issued: c.run.IssuedUops, tailSeq: c.tailSeq, memEpoch: c.memEpoch,
		fetchBlockedTil: c.fetchBlockedTil, fetchStallSeq: c.fetchStallSeq,
		sbStarted: c.sbStarted,
	}
}

// stepRun simulates tr on a fresh core like RunContext does, but steps every
// cycle (no dead-cycle jumps) and calls check after each one. It stops when
// the stream has retired or after limit cycles, and returns the row. On
// every cycle the stages' reports of whether they acted, ORed, must agree
// with a change of the cycle's activity snapshot.
//
// In eager mode every unissued entry is unparked and set awake before each
// issue scan, so the scan evaluates every entry it reaches every cycle: the
// timing of a core with no wake scheduling at all. RunContext must match it
// row for row — a park may only skip evaluations that would have re-parked.
func stepRun(t *testing.T, c *Core, tr *trace.Trace, limit uint64, eager bool, check func()) stats.Run {
	t.Helper()
	if err := c.bindTrace(tr); err != nil {
		t.Fatal(err)
	}
	for c.traceIdx(c.headSeq) < tr.Len() && c.cycle < limit {
		c.cycle++
		before := activityOf(c)
		acted := c.commitStage()
		acted = c.drainStoreBuffer() || acted
		for seq := c.headSeq; eager && seq < c.tailSeq; seq++ {
			if e := c.entry(seq); e.state != stIssued {
				e.retryAt = 0
				pos := seq & c.robMask
				c.awake[pos>>6] |= 1 << (pos & 63)
			}
		}
		acted = c.issueStage() || acted
		acted = c.fetchStage() || acted
		if changed := activityOf(c) != before; acted != changed {
			t.Fatalf("cycle %d: the stages report acted %v, the activity snapshot changed %v (%+v → %+v)",
				c.cycle, acted, changed, before, activityOf(c))
		}
		if c.verifyErr != nil {
			t.Fatal(c.verifyErr)
		}
		c.run.ROBOccupancySum += c.tailSeq - c.headSeq
		c.run.SQOccupancySum += uint64(c.sqLen)
		check()
	}
	c.finalizeStats()
	return c.run
}

// eagerMatches fails t unless RunContext's row of tr on machine m equals the
// eager stepper's (see stepRun); mk builds a fresh predictor for each run.
func eagerMatches(t *testing.T, m config.Machine, mk func() mdp.Predictor, tr *trace.Trace) {
	t.Helper()
	c, err := New(m, mk(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if c, err = New(m, mk(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if eager := stepRun(t, c, tr, 10_000_000, true, func() {}); !reflect.DeepEqual(eager, *want) {
		t.Errorf("%s on %s under %s: RunContext's row differs from the eager stepper's:\neager %+v\nrun   %+v",
			tr.Name, m.Name, want.Predictor, eager, *want)
	}
}

// wakeChecker returns a check of the scheduler's wake invariant, run at the
// end of a cycle. Every in-flight entry holds the micro-op at its trace
// index, seq−seqBase. Every unissued in-flight entry's wait record is one of
// three kinds of wait:
//
//   - registered: a non-zero waitOn names an unissued, older micro-op whose
//     dependents row and row-summary bits hold the entry, for a cause that
//     registers (operand, MDP gate, WaitAll/Vector gate, Store Sets) — a
//     register source its next step needs, or a store — so that its issue
//     files the entry at its completion;
//   - memory-bound: only a forwarding stall or a partial-overlap drain may
//     hold a memory-parked bit;
//   - otherwise the entry is awake, or its park holds and a wake is filed
//     that cannot come late: time-bound, in a wheel bucket at or before its
//     retryAt; memory-bound, memory-parked (so that the next memory event
//     ends the park) and, unless it has no time bound, in a wheel bucket at
//     or before its retryAt.
//
// A parked entry's record names why it waits: an evaluation filed it. It
// also checks that every non-empty bucket has its summary bit, since the
// dead-cycle jump only looks at the summary.
func wakeChecker(t *testing.T, c *Core) func() {
	filedAt := make([]uint64, len(c.rob))
	words := uint64(len(c.awake))
	return func() {
		t.Helper()
		for i := range filedAt {
			filedAt[i] = neverRetry
		}
		for b := uint64(0); b < wheelSize; b++ {
			row := c.wheel[b*words : (b+1)*words]
			at := c.bucketCycle(b)
			for w, bitsW := range row {
				if bitsW != 0 && c.wheelSum[b>>6]&(1<<(b&63)) == 0 {
					t.Fatalf("cycle %d: bucket %d is not empty but its summary bit is clear", c.cycle, b)
				}
				for ; bitsW != 0; bitsW &= bitsW - 1 {
					pos := uint64(w*64 + bits.TrailingZeros64(bitsW))
					filedAt[pos] = min(filedAt[pos], at)
				}
			}
		}
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			e := c.entry(seq)
			if i := c.traceIdx(seq); i >= c.tr.Len() || e.inst != &c.tr.Insts[i] {
				t.Fatalf("cycle %d: seq %d does not hold the micro-op at its trace index %d", c.cycle, seq, i)
			}
			if e.state == stIssued {
				continue
			}
			pos := seq & c.robMask
			w, bit := pos>>6, uint64(1)<<(pos&63)
			fail := func(why string) {
				t.Fatalf("cycle %d: seq %d (%s) %s: waits %q on %d, retryAt %d",
					c.cycle, seq, e.kind, why, e.cause, e.waitOn, e.retryAt)
			}
			if c.memParked[w]&bit != 0 && !e.cause.memoryBound() {
				fail("is memory-parked for a wait no memory event can change")
			}
			if p := e.waitOn; p != 0 {
				switch e.cause {
				case waitOperand:
					src := p == e.srcASeq || p == e.srcBSeq
					if e.kind == isa.Store {
						src = p == e.srcASeq && !e.addrResolved || p == e.srcBSeq && e.addrResolved
					}
					if !src {
						fail("names a producer that is not a source its next step needs")
					}
				case waitGate, waitGateAll, waitStoreSets:
					if c.entry(p).kind != isa.Store {
						fail("waits in the row of a micro-op that is not a store")
					}
				default:
					fail("is in a dependents row for a cause that never registers")
				}
				if p < c.headSeq || p >= seq || c.readyAt[p&c.robMask] != 0 {
					fail("names a micro-op that is not unissued and older")
				}
				row := (p & c.robMask) * words
				if c.deps[row+w]&bit == 0 || c.depSum[p&c.robMask]&(1<<(w>>c.sumShift)) == 0 {
					fail("is not held by its recorded producer's dependents row and row summary")
				}
				continue
			}
			if c.awake[w]&bit != 0 {
				continue
			}
			switch {
			case e.cause == waitNone:
				fail("is parked with no wait record")
			case !c.parked(e):
				fail("is neither awake nor parked")
			case !e.cause.memoryBound():
				if filedAt[pos] > e.retryAt {
					fail("is time-bound but filed after its retryAt (or not at all)")
				}
			default:
				if c.memParked[w]&bit == 0 {
					fail("is memory-bound but not memory-parked")
				}
				if e.retryAt != neverRetry && filedAt[pos] > e.retryAt {
					fail("is memory-bound but filed after its retryAt (or not at all)")
				}
			}
		}
	}
}

// mirrorChecker returns a check, run at the end of a cycle, that the copies
// the memory-side searches read instead of ROB entries agree with the
// entries: the store ring holds at most SQ in-flight and SQ committed
// stores, with the started drains a prefix of the committed ones, and
// consecutive allocation indices from its head; every in-flight slot mirrors
// its store (seq, allocation index, footprint, address resolution) and those
// slots hold exactly the in-flight stores in order; every committed slot is
// resolved and older than the ROB head; the load-queue slots hold exactly
// the in-flight loads in order, with their footprints, and the executed
// bitmap marks exactly the executed ones; every op's loadIndex is the LQ
// index of the first load younger than it (its own, for a load); the store
// filter counts exactly the footprints of all sbLen+sqLen store-ring slots
// and the load filter those of the executed loads; every non-zero
// dependents-row word has its row-summary bit; and every occupancy bit of
// the predictor's tables (if it has any) says whether its set holds a valid
// entry.
func mirrorChecker(t *testing.T, c *Core) func() {
	var tables []*mdp.AssocTable
	if o, ok := c.pred.(interface{ Tables() []*mdp.AssocTable }); ok {
		tables = o.Tables()
	}
	return func() {
		t.Helper()
		var st, ld lineFilter
		stores, loads, executed := 0, uint64(0), 0
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			e := c.entry(seq)
			if e.loadIndex != c.lqFirst+loads {
				t.Fatalf("cycle %d: seq %d (%s) has load index %d, want %d",
					c.cycle, seq, e.kind, e.loadIndex, c.lqFirst+loads)
			}
			switch e.kind {
			case isa.Store:
				stores++
			case isa.Load:
				pos := e.loadIndex & c.lqMask
				want := lqSlot{seq: seq, addr: e.inst.Addr, size: e.inst.Size}
				if c.lq[pos] != want || (c.lqExec[pos>>6]>>(pos&63))&1 == 1 != e.executed {
					t.Fatalf("cycle %d: load-queue slot %d is %+v (executed bit %v), its load holds %+v (executed %v)",
						c.cycle, loads, c.lq[pos], (c.lqExec[pos>>6]>>(pos&63))&1 == 1, want, e.executed)
				}
				if e.executed {
					executed++
					ld.add(e.inst.Addr, e.inst.Size)
				}
				loads++
			}
		}
		marked := 0
		for _, w := range c.lqExec {
			marked += bits.OnesCount64(w)
		}
		if loads != uint64(c.lqLen) || marked != executed {
			t.Fatalf("cycle %d: %d in-flight loads (%d executed), %d load-queue slots (%d marked executed)",
				c.cycle, loads, executed, c.lqLen, marked)
		}
		if stores != c.sqLen {
			t.Fatalf("cycle %d: %d in-flight stores, %d store-queue slots", c.cycle, stores, c.sqLen)
		}
		if c.sqLen > c.cfg.SQ || c.sbLen > c.cfg.SQ || c.sbStarted > c.sbLen {
			t.Fatalf("cycle %d: store ring holds %d in-flight and %d committed stores (%d draining), SQ %d",
				c.cycle, c.sqLen, c.sbLen, c.sbStarted, c.cfg.SQ)
		}
		for i := 0; i < c.sbLen+c.sqLen; i++ {
			s := c.stAt(i)
			st.add(s.addr, s.size)
			if s.storeIndex != c.stAt(0).storeIndex+uint64(i) {
				t.Fatalf("cycle %d: store-ring slot %d holds allocation index %d, its head %d",
					c.cycle, i, s.storeIndex, c.stAt(0).storeIndex)
			}
			if i < c.sbLen {
				if !s.resolved || s.seq >= c.headSeq {
					t.Fatalf("cycle %d: store-buffer slot %d is %+v: unresolved, or not committed (head %d)",
						c.cycle, i, *s, c.headSeq)
				}
				continue
			}
			e := c.entry(s.seq)
			want := storeSlot{seq: e.seq, storeIndex: e.storeIndex, addr: e.inst.Addr, size: e.inst.Size, resolved: e.addrResolved}
			if e.kind != isa.Store || *s != want || s.seq < c.headSeq {
				t.Fatalf("cycle %d: store-queue slot %d is %+v, its entry holds %+v", c.cycle, i-c.sbLen, *s, want)
			}
		}
		words := uint64(len(c.awake))
		for p, sum := range c.depSum {
			for w := uint64(0); w < words; w++ {
				if c.deps[uint64(p)*words+w] != 0 && sum&(1<<(w>>c.sumShift)) == 0 {
					t.Fatalf("cycle %d: dependents row %d word %d is not zero but its summary bit is clear", c.cycle, p, w)
				}
			}
		}
		if st != c.stLines || ld != c.ldLines {
			t.Fatalf("cycle %d: a line filter differs from its queue's footprints (store ring %v, loads %v)",
				c.cycle, st == c.stLines, ld == c.ldLines)
		}
		for i, tb := range tables {
			for set := uint32(0); set < uint32(tb.Sets()); set++ {
				valid := false
				for w := 0; w < tb.Ways(); w++ {
					valid = valid || tb.At(set, w).Valid
				}
				if tb.Occupied(set) != valid {
					t.Fatalf("cycle %d: table %d set %d occupancy bit %v, holds a valid entry %v",
						c.cycle, i, set, tb.Occupied(set), valid)
				}
			}
		}
	}
}

// TestWakeInvariant steps the stages cycle by cycle, without dead-cycle
// jumps, and checks the wake invariant and the memory-side mirrors after
// every cycle: on a memory-bound and a core-bound app, on the two apps whose
// Store Sets waits register with stores most, under MDP-TAGE and NoSQ (whose
// tables fill and empty), and on a random stream with register-writing
// stores on the ROB-20 machine (a ring narrower than one bitset word, wake
// bounds beyond the wheel horizon) under predictors producing every gate
// kind. The stepped row must also equal RunContext's, skipped cycles
// included, and so must the eager stepper's.
func TestWakeInvariant(t *testing.T) {
	random := withStoreDsts(randomTrace(3, 3000), 3)
	storeSets := func() mdp.Predictor { return mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()) }
	cases := []struct {
		name string
		m    config.Machine
		tr   *trace.Trace
		pred func() mdp.Predictor
	}{
		{"505.mcf/phast", config.AlderLake(), appTrace(t, "505.mcf", 4000), corePHAST},
		{"511.povray/storesets", config.AlderLake(), appTrace(t, "511.povray", 4000), storeSets},
		{"557.xz_1/storesets", config.AlderLake(), appTrace(t, "557.xz_1", 4000), storeSets},
		{"500.perlbench_3/storesets", config.AlderLake(), appTrace(t, "500.perlbench_3", 4000), storeSets},
		{"541.leela/mdptage", config.AlderLake(), appTrace(t, "541.leela", 4000), func() mdp.Predictor { return mdp.NewMDPTAGE(mdp.DefaultMDPTAGEConfig()) }},
		{"511.povray/nosq", config.AlderLake(), appTrace(t, "511.povray", 4000), func() mdp.Predictor { return mdp.NewNoSQ(mdp.DefaultNoSQConfig()) }},
		{"random/phast", goldenMachines()[1], random, corePHAST},
		{"random/storesets", goldenMachines()[1], random, storeSets},
		{"random/vector", goldenMachines()[1], random, func() mdp.Predictor { return mdp.DefaultStoreVector() }},
		{"random/alwayswait", goldenMachines()[1], random, func() mdp.Predictor { return mdp.NewAlwaysWait() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.m, tc.pred(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			wake, mirror := wakeChecker(t, c), mirrorChecker(t, c)
			stepped := stepRun(t, c, tc.tr, 10_000_000, false, func() { wake(); mirror() })
			ref, err := New(tc.m, tc.pred(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stepped, *want) {
				t.Errorf("stepped row differs from RunContext's:\nstepped %+v\nrun     %+v", stepped, *want)
			}
			eagerMatches(t, tc.m, tc.pred, tc.tr)
		})
	}
}

// TestEagerScheduleMatchesRun checks that simulated time does not depend on
// which cycles the scheduler re-evaluates an entry, on the streams where a
// store also writes a register: RunContext must equal the eager stepper on
// alderlake and on the ROB-20 machine, for gateTrace seeds under all four
// gate kinds (with Store Sets serialisation on alternate seeds) and for
// random streams with register-writing stores under every golden
// predictor; and on alderlake for a short suite stream of 557.xz_1, whose
// deep store queue keeps Store Vector, always-wait and perceptron-mdp
// loads waiting behind a set of older stores.
func TestEagerScheduleMatchesRun(t *testing.T) {
	kinds := []mdp.PredKind{mdp.Distance, mdp.StoreSeq, mdp.Vector, mdp.WaitAll}
	for _, m := range goldenMachines()[:2] {
		for seed := int64(1); seed <= 16; seed++ {
			tr := gateTrace(seed, 500)
			for _, kind := range kinds {
				eagerMatches(t, m, func() mdp.Predictor {
					var p mdp.Predictor = gatePredictor{mdp.NewNone(), kind}
					if seed%2 == 0 {
						p = serialisingPredictor{p}
					}
					return p
				}, tr)
			}
		}
		for seed := int64(3); seed <= 6; seed++ {
			tr := withStoreDsts(randomTrace(seed, 3000), seed)
			for i := range goldenPredictors() {
				eagerMatches(t, m, func() mdp.Predictor { return goldenPredictors()[i] }, tr)
			}
		}
	}
	xz := appTrace(t, "557.xz_1", 3000)
	for _, mk := range []func() mdp.Predictor{
		func() mdp.Predictor { return mdp.DefaultStoreVector() },
		func() mdp.Predictor { return mdp.NewAlwaysWait() },
		func() mdp.Predictor { return mdp.DefaultPerceptronMDP() },
	} {
		eagerMatches(t, config.AlderLake(), mk, xz)
	}
}

// checkParkStates asserts that every unissued ROB entry listed in a state
// dump names where its next wake comes from.
func checkParkStates(t *testing.T, dump string) {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		if !strings.HasPrefix(line, "  seq ") || strings.Contains(line, "issued, completes") || strings.Contains(line, " done") {
			continue
		}
		if !strings.Contains(line, "time-bound") && !strings.Contains(line, "memory-bound") && !strings.HasSuffix(line, "; awake") {
			t.Errorf("dump line lacks the park state: %q", line)
		}
	}
}

// TestStoreWaitEvals guards the store-ordering waits, which register with
// the store they wait on: under Store Sets, whose loads and stores wait
// behind unissued stores, and under Store Vector and always-wait, whose
// loads wait behind a set of older stores, a run must keep to under three
// issue-scan evaluations per micro-op on the two apps where such waits used
// to be re-evaluated almost every cycle or on every memory event (at this n,
// 26 and 37 evaluations per micro-op under Store Sets before its waits
// registered; on 557.xz_1, 9.04 under Store Vector and 27.58 under
// always-wait before theirs did).
func TestStoreWaitEvals(t *testing.T) {
	preds := []struct {
		name string
		mk   func() mdp.Predictor
	}{
		{"storesets", func() mdp.Predictor { return mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()) }},
		{"storevector", func() mdp.Predictor { return mdp.DefaultStoreVector() }},
		{"alwayswait", func() mdp.Predictor { return mdp.NewAlwaysWait() }},
	}
	for _, app := range []string{"500.perlbench_3", "557.xz_1"} {
		tr := appTrace(t, app, 20_000)
		for _, p := range preds {
			c, err := New(config.AlderLake(), p.mk(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if per := float64(c.IssueEvals()) / float64(res.Committed); per >= 3 {
				t.Errorf("%s/%s: %.2f issue evaluations per micro-op, want < 3", app, p.name, per)
			}
		}
	}
}

// storeWaitAtHead reports whether one of the entries a state dump lists is
// registered with the store its gate or serialisation waits on.
func storeWaitAtHead(c *Core) bool {
	for seq := c.headSeq; seq < c.tailSeq && seq < c.headSeq+12; seq++ {
		if e := c.entry(seq); e.state != stIssued && e.waitOn != 0 && e.cause != waitOperand {
			return true
		}
	}
	return false
}

// TestDumpNamesParkState stops a memory-bound run mid-stream and checks the
// state dump: the wakeup line counts the entries by wake source, and each
// unissued entry says whether it is parked time-bound or memory-bound. A
// Store Sets run on 557.xz_1, stopped at the first cycle an entry of the
// dump waits for a store's issue, must name that store.
func TestDumpNamesParkState(t *testing.T) {
	c, err := New(config.AlderLake(), mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stepRun(t, c, appTrace(t, "505.mcf", 20_000), 3000, false, func() {})
	dump := c.stateDump()
	if !strings.Contains(dump, "wakeup: memEpoch") || !strings.Contains(dump, "next wheel wake cycle") {
		t.Errorf("dump lacks the wakeup line or the next wheel wake:\n%s", dump)
	}
	if !strings.Contains(dump, "-bound park") {
		t.Errorf("no parked entry in the dump's head region; the test proves nothing:\n%s", dump)
	}
	checkParkStates(t, dump)

	tr := appTrace(t, "557.xz_1", 4000)
	probe, err := New(config.AlderLake(), mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var stop uint64
	stepRun(t, probe, tr, 10_000_000, false, func() {
		if stop == 0 && storeWaitAtHead(probe) {
			stop = probe.cycle
		}
	})
	if stop == 0 {
		t.Fatal("no dumped entry ever waits for a store's issue; the test proves nothing")
	}
	c, err = New(config.AlderLake(), mdp.NewStoreSets(mdp.DefaultStoreSetsConfig()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stepRun(t, c, tr, stop, false, func() {})
	dump = c.stateDump()
	if !regexp.MustCompile(`; time-bound park until store seq \d+ issues\n`).MatchString(dump) {
		t.Errorf("no dump line names the store an entry waits for:\n%s", dump)
	}
	checkParkStates(t, dump)
}

// TestDumpNamesEveryCause stops runs at the first cycle an entry in the
// state dump's head region waits for a given cause, and checks that its dump
// line names the cause, the producer or store whose dependents row holds it
// (for the causes that register), and its park. The wake invariant is
// checked on every cycle up to the stop.
func TestDumpNamesEveryCause(t *testing.T) {
	none := func() mdp.Predictor { return mdp.NewNone() }
	gate := func(kind mdp.PredKind) func() mdp.Predictor {
		return func() mdp.Predictor { return gatePredictor{mdp.NewNone(), kind} }
	}
	gates := gateTrace(1, 500)
	cases := []struct {
		name  string
		tr    *trace.Trace
		pred  func() mdp.Predictor
		cause waitCause
		row   bool   // registered in a dependents row: the line names its seq
		park  string // what the line says of the park
	}{
		{"operand", gates, none, waitOperand, true, "time-bound park until seq "},
		{"gate/distance", gates, gate(mdp.Distance), waitGate, true, "time-bound park until store seq "},
		{"gate/storeseq", gates, gate(mdp.StoreSeq), waitGate, true, "time-bound park until store seq "},
		{"gate/waitall", gates, gate(mdp.WaitAll), waitGateAll, true, "time-bound park until store seq "},
		{"gate/vector", gates, gate(mdp.Vector), waitGateAll, true, "time-bound park until store seq "},
		{"storesets", gates, func() mdp.Predictor { return serialisingPredictor{mdp.NewNone()} },
			waitStoreSets, true, "time-bound park until store seq "},
		{"forward", gates, none, waitForward, false, "memory-bound park"},
		{"drain", randomTrace(1, 3000), none, waitDrain, false, "memory-bound park until the next memory event"},
		{"port", appTrace(t, "511.povray", 4000), none, waitPort, false, "awake"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(config.AlderLake(), tc.pred(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			wake := wakeChecker(t, c)
			var dump string
			var seq, on uint64
			stepRun(t, c, tc.tr, 10_000_000, false, func() {
				if dump != "" {
					return
				}
				wake()
				for s := c.headSeq; s < c.tailSeq && s < c.headSeq+12; s++ {
					e, pos := c.entry(s), s&c.robMask
					awake := c.awake[pos>>6]&(1<<(pos&63)) != 0
					if e.state != stIssued && e.cause == tc.cause && (e.waitOn != 0) == tc.row && awake == (tc.cause == waitPort) {
						dump, seq, on = c.stateDump(), s, e.waitOn
						return
					}
				}
			})
			if dump == "" {
				t.Fatalf("no dumped entry ever waits for %s; the test proves nothing", tc.cause)
			}
			want := "waits: " + tc.cause.String() + "; " + tc.park
			if tc.row {
				want += fmt.Sprintf("%d issues", on)
			}
			line := regexp.MustCompile(fmt.Sprintf(`(?m)^  seq %d idx .*$`, seq)).FindString(dump)
			if !strings.Contains(line, want) {
				t.Errorf("dump line of seq %d lacks %q:\n%s", seq, want, dump)
			}
			checkParkStates(t, dump)
		})
	}
}
