package bpred

// TAGE (Seznec, MICRO 2011): a bimodal base predictor plus several partially
// tagged tables indexed with geometrically increasing global history
// lengths. The longest-history tag match provides the prediction; entries
// carry a usefulness counter that steers allocation and is periodically
// degraded.

// TAGEConfig sizes a TAGE predictor.
type TAGEConfig struct {
	BaseBits    int   // log2 entries of the bimodal base
	TableBits   int   // log2 entries of each tagged table
	TagBits     int   // partial tag width
	Histories   []int // geometric history lengths, shortest first
	UResetEvery int   // branches between usefulness column clears
}

// DefaultTAGEConfig returns an 8-component TAGE with histories 4..130.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseBits:    13,
		TableBits:   10,
		TagBits:     11,
		Histories:   []int{4, 6, 10, 16, 25, 40, 80, 130},
		UResetEvery: 512 << 10,
	}
}

type tageEntry struct {
	tag   uint32
	ctr   int8 // signed 3-bit counter, taken if >= 0
	u     uint8
	valid bool
}

// bitFold is an incrementally maintained fold of the last length history
// bits into width bits (the hardware circular-shift-register construction;
// recomputing folds per lookup dominated the simulator profile). The first
// push derives leave (the bit the leaving history bit toggles) and mask from
// length and width, so no later push divides.
type bitFold struct {
	length, width int
	val           uint64
	leave, mask   uint64
}

func (f *bitFold) push(newBit, leavingBit bool) {
	if f.mask == 0 {
		if f.length == 0 || f.width == 0 {
			return
		}
		f.leave = 1 << ((f.length - 1) % f.width)
		f.mask = 1<<f.width - 1
	}
	v := f.val
	if leavingBit {
		v ^= f.leave
	}
	// Rotate left by one within width.
	v = ((v << 1) | (v >> (f.width - 1))) & f.mask
	if newBit {
		v ^= 1
	}
	f.val = v
}

// TAGE is a tagged-geometric direction predictor.
type TAGE struct {
	cfg    TAGEConfig
	base   []ctr2
	tables [][]tageEntry
	// Global history as a bit ring (we keep more than the longest length).
	hist    []bool
	histPos int
	// Per-component incremental folds: index, tag, and the tag's second
	// (width-1) fold.
	foldIdx  []bitFold
	foldTag  []bitFold
	foldTag2 []bitFold
	updates  uint64
	rng      uint64
}

// NewTAGE builds a TAGE predictor with the given configuration.
func NewTAGE(cfg TAGEConfig) *TAGE {
	maxHist := cfg.Histories[len(cfg.Histories)-1]
	t := &TAGE{
		cfg:  cfg,
		base: make([]ctr2, 1<<cfg.BaseBits),
		hist: make([]bool, maxHist+1),
		rng:  0x123456789abcdef,
	}
	for _, h := range cfg.Histories {
		t.tables = append(t.tables, make([]tageEntry, 1<<cfg.TableBits))
		t.foldIdx = append(t.foldIdx, bitFold{length: h, width: cfg.TableBits})
		t.foldTag = append(t.foldTag, bitFold{length: h, width: cfg.TagBits})
		t.foldTag2 = append(t.foldTag2, bitFold{length: h, width: cfg.TagBits - 1})
	}
	return t
}

// Name implements DirPredictor.
func (t *TAGE) Name() string { return "tage" }

func (t *TAGE) index(pc uint64, comp int) uint64 {
	h := t.foldIdx[comp].val
	return (pc ^ pc>>t.cfg.TableBits ^ h ^ uint64(comp)*0x9e37) & (1<<t.cfg.TableBits - 1)
}

func (t *TAGE) tag(pc uint64, comp int) uint32 {
	h := t.foldTag[comp].val
	h2 := t.foldTag2[comp].val
	return uint32((pc ^ h ^ h2<<1) & (1<<t.cfg.TagBits - 1))
}

// lookup returns the providing component (or -1 for base) and prediction.
func (t *TAGE) lookup(pc uint64) (provider int, pred bool) {
	provider = -1
	pred = t.base[pc&(1<<t.cfg.BaseBits-1)].taken()
	for c := len(t.tables) - 1; c >= 0; c-- {
		e := &t.tables[c][t.index(pc, c)]
		if e.valid && e.tag == t.tag(pc, c) {
			return c, e.ctr >= 0
		}
	}
	return provider, pred
}

// Predict implements DirPredictor.
func (t *TAGE) Predict(pc uint64) bool {
	_, p := t.lookup(pc)
	return p
}

// Update implements DirPredictor.
func (t *TAGE) Update(pc uint64, taken bool) {
	provider, pred := t.lookup(pc)
	if provider >= 0 {
		e := &t.tables[provider][t.index(pc, provider)]
		if pred == taken {
			if e.u < 3 {
				e.u++
			}
		}
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
	} else {
		i := pc & (1<<t.cfg.BaseBits - 1)
		t.base[i] = t.base[i].update(taken)
	}
	// Allocate on misprediction in a longer-history component.
	if pred != taken && provider < len(t.tables)-1 {
		t.allocate(pc, provider, taken)
	}
	// Periodic usefulness degradation.
	t.updates++
	if t.cfg.UResetEvery > 0 && t.updates%uint64(t.cfg.UResetEvery) == 0 {
		for _, tbl := range t.tables {
			for i := range tbl {
				tbl[i].u >>= 1
			}
		}
	}
	// Push history and advance the incremental folds. The leaving bit of a
	// fold of length L is the bit pushed L steps ago, still present in the
	// ring because its capacity exceeds the longest history.
	for c := range t.foldIdx {
		L := t.cfg.Histories[c]
		pos := t.histPos - L
		if pos < 0 {
			pos += len(t.hist)
		}
		leaving := t.hist[pos]
		t.foldIdx[c].push(taken, leaving)
		t.foldTag[c].push(taken, leaving)
		t.foldTag2[c].push(taken, leaving)
	}
	t.hist[t.histPos] = taken
	t.histPos++
	if t.histPos == len(t.hist) {
		t.histPos = 0
	}
}

func (t *TAGE) nextRand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

func (t *TAGE) allocate(pc uint64, provider int, taken bool) {
	start := provider + 1
	// Skip one component with probability 1/2 (Seznec's allocation churn).
	if start < len(t.tables)-1 && t.nextRand()&1 == 0 {
		start++
	}
	for c := start; c < len(t.tables); c++ {
		e := &t.tables[c][t.index(pc, c)]
		if !e.valid || e.u == 0 {
			e.valid = true
			e.tag = t.tag(pc, c)
			e.u = 0
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	// No free entry: decay usefulness along the way.
	for c := start; c < len(t.tables); c++ {
		e := &t.tables[c][t.index(pc, c)]
		if e.u > 0 {
			e.u--
		}
	}
}

// TAGESCL is TAGE plus a loop predictor, a light stand-in for the TAGE-SC-L
// front end of Table I. The loop predictor captures loops with a stable trip
// count that TAGE's saturating counters mispredict once per iteration set.
type TAGESCL struct {
	tage *TAGE
	loop map[uint64]*loopEntry
}

type loopEntry struct {
	tripCount     uint32 // confirmed iterations between not-takens
	current       uint32
	confirmations uint8 // consecutive trips matching tripCount
}

// loopConfirmations is how many identical consecutive trip counts the loop
// predictor needs before it overrides TAGE (Seznec uses a similar
// hysteresis; without it an irregular branch thrashes the override).
const loopConfirmations = 4

func (e *loopEntry) confident() bool { return e.confirmations >= loopConfirmations }

// NewTAGESCL builds the composite predictor.
func NewTAGESCL() *TAGESCL {
	return &TAGESCL{tage: NewTAGE(DefaultTAGEConfig()), loop: map[uint64]*loopEntry{}}
}

// Name implements DirPredictor.
func (t *TAGESCL) Name() string { return "tagescl" }

// Predict implements DirPredictor.
func (t *TAGESCL) Predict(pc uint64) bool {
	if e, ok := t.loop[pc]; ok && e.confident() {
		return e.current+1 < e.tripCount
	}
	return t.tage.Predict(pc)
}

// Update implements DirPredictor.
func (t *TAGESCL) Update(pc uint64, taken bool) {
	e, ok := t.loop[pc]
	if !ok {
		if len(t.loop) < 256 {
			e = &loopEntry{}
			t.loop[pc] = e
		}
	}
	if e != nil {
		if e.confident() && (e.current+1 < e.tripCount) != taken {
			e.confirmations = 0 // the override mispredicted: stand down
		}
		if taken {
			e.current++
			if e.current > 1<<16 { // not a loop branch; stop tracking
				delete(t.loop, pc)
				e = nil
			}
		} else {
			trip := e.current + 1
			if trip == e.tripCount {
				if e.confirmations < 255 {
					e.confirmations++
				}
			} else {
				e.tripCount = trip
				e.confirmations = 0
			}
			e.current = 0
		}
	}
	t.tage.Update(pc, taken)
}

// TargetCache predicts indirect branch targets: an ITTAGE-lite with a
// PC-indexed base table (last target seen) and two tagged tables indexed
// with short and long target-history hashes. Target history mixes several
// address ranges of each target so handlers that differ only in high bits
// still produce distinct histories.
type TargetCache struct {
	base   []targetEntry
	tagged [2][]targetEntry
	mask   uint64
	hist   uint64
}

type targetEntry struct {
	tag    uint32
	target uint64
	conf   uint8
	valid  bool
}

// targetHistLens are the history lengths (in recorded targets) of the two
// tagged tables.
var targetHistLens = [2]uint64{4, 12}

// NewTargetCache returns a target cache with 2^bits entries per table.
func NewTargetCache(bits int) *TargetCache {
	tc := &TargetCache{base: make([]targetEntry, 1<<bits), mask: 1<<bits - 1}
	for i := range tc.tagged {
		tc.tagged[i] = make([]targetEntry, 1<<bits)
	}
	return tc
}

// histChunk compresses one target into 4 history bits, mixing low and high
// address ranges.
func histChunk(target uint64) uint64 {
	return (target ^ target>>4 ^ target>>9 ^ target>>15) & 15
}

func (tc *TargetCache) index(pc uint64, comp int) uint64 {
	window := tc.hist & (1<<(4*targetHistLens[comp]) - 1)
	h := window * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return (pc ^ pc>>7 ^ h ^ uint64(comp+1)*0x85ebca6b) & tc.mask
}

// Predict returns the predicted target and whether a prediction exists:
// the longest-history confident tag match, falling back to the base table.
func (tc *TargetCache) Predict(pc uint64) (uint64, bool) {
	for comp := 1; comp >= 0; comp-- {
		e := &tc.tagged[comp][tc.index(pc, comp)]
		if e.valid && e.tag == uint32(pc) && e.conf > 0 {
			return e.target, true
		}
	}
	e := &tc.base[pc&tc.mask]
	if e.valid && e.tag == uint32(pc) {
		return e.target, true
	}
	return 0, false
}

// Update trains all components with the resolved target and rolls history.
func (tc *TargetCache) Update(pc, target uint64) {
	for comp := 0; comp < 2; comp++ {
		e := &tc.tagged[comp][tc.index(pc, comp)]
		if e.valid && e.tag == uint32(pc) {
			if e.target == target {
				if e.conf < 3 {
					e.conf++
				}
			} else if e.conf > 0 {
				e.conf--
			} else {
				e.target = target
			}
		} else if !e.valid || e.conf == 0 {
			*e = targetEntry{tag: uint32(pc), target: target, conf: 1, valid: true}
		} else {
			e.conf--
		}
	}
	b := &tc.base[pc&tc.mask]
	*b = targetEntry{tag: uint32(pc), target: target, valid: true}
	tc.hist = tc.hist<<4 | histChunk(target)
}
