package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	_ "unsafe" // for go:linkname

	"repro/internal/histutil"
	"repro/internal/mdp"
)

// nanotime is the runtime's monotonic clock. One read costs about half of a
// time.Now, which matters where calls are timed inside the cycle loop.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// span is one timed section at a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one. Count and Busy carry
// aggregated work where calls number in the millions: Count calls took Busy
// nanoseconds in total (estimated from the sampled calls).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0   int64
	next atomic.Int64
	mu   sync.Mutex
	out  []span
}

func newTracer() *tracer { return &tracer{t0: nanotime()} }

// begin allocates a span ID and returns it with the start time; end records
// the span. Children may name the ID as their parent before the span ends.
func (t *tracer) begin() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), nanotime()
}

func (t *tracer) end(id, start int64, name string, parent int64, req string, count, busy int64) span {
	if t == nil {
		return span{}
	}
	s := span{ID: id, Parent: parent, Name: name, Req: req, Start: start - t.t0, End: nanotime() - t.t0, Count: count, Busy: busy}
	t.mu.Lock()
	t.out = append(t.out, s)
	t.mu.Unlock()
	return s
}

// record times fn as one span.
func (t *tracer) record(name string, parent int64, fn func(id int64)) span {
	id, start := t.begin()
	fn(id)
	return t.end(id, start, name, parent, "", 0, 0)
}

// spans returns the recorded spans named name.
func (t *tracer) spans(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.out {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// clockCost estimates the cost of one nanotime read, which a sampled span
// of a single call includes once; it is subtracted from sampled call times.
func clockCost() float64 {
	const n = 200_000
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		t := time.Now()
		var s int64
		for i := 0; i < n; i++ {
			s += nanotime()
		}
		if d := time.Since(t); d < best && s != 0 {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / n
}

// mdpSampleMask selects which predictor calls the decorator times: one in
// mdpSampleMask+1. Timing every call would double the cost of cheap ones.
const mdpSampleMask = 15

// timedPredictor decorates an mdp.Predictor with call counts and sampled
// call times. It changes no prediction, so a core driven through it must
// produce bit-identical counters.
type timedPredictor struct {
	mdp.Predictor
	calls, sampled, sampledNs int64
}

func (p *timedPredictor) tick() bool {
	p.calls++
	return p.calls&mdpSampleMask == 0
}

func (p *timedPredictor) add(t0 int64) {
	p.sampled++
	p.sampledNs += nanotime() - t0
}

// NeedsOracle forwards the optional capability the pipeline probes for.
func (p *timedPredictor) NeedsOracle() bool {
	no, ok := p.Predictor.(interface{ NeedsOracle() bool })
	return ok && no.NeedsOracle()
}

func (p *timedPredictor) Predict(ld mdp.LoadInfo, hist *histutil.Reg) mdp.Prediction {
	if !p.tick() {
		return p.Predictor.Predict(ld, hist)
	}
	t0 := nanotime()
	r := p.Predictor.Predict(ld, hist)
	p.add(t0)
	return r
}

func (p *timedPredictor) StoreDispatch(st mdp.StoreInfo) uint64 {
	if !p.tick() {
		return p.Predictor.StoreDispatch(st)
	}
	t0 := nanotime()
	r := p.Predictor.StoreDispatch(st)
	p.add(t0)
	return r
}

func (p *timedPredictor) StoreCommit(st mdp.StoreInfo) {
	if !p.tick() {
		p.Predictor.StoreCommit(st)
		return
	}
	t0 := nanotime()
	p.Predictor.StoreCommit(st)
	p.add(t0)
}

func (p *timedPredictor) TrainViolation(ld mdp.LoadInfo, st mdp.StoreInfo, dist int, out mdp.Outcome, hist *histutil.Reg) {
	if !p.tick() {
		p.Predictor.TrainViolation(ld, st, dist, out, hist)
		return
	}
	t0 := nanotime()
	p.Predictor.TrainViolation(ld, st, dist, out, hist)
	p.add(t0)
}

func (p *timedPredictor) TrainCommit(ld mdp.LoadInfo, out mdp.Outcome, hist *histutil.Reg) {
	if !p.tick() {
		p.Predictor.TrainCommit(ld, out, hist)
		return
	}
	t0 := nanotime()
	p.Predictor.TrainCommit(ld, out, hist)
	p.add(t0)
}

// busyNs estimates the total time spent in the predictor: the mean sampled
// call time, less one clock read, times the number of calls.
func (p *timedPredictor) busyNs(clock float64) float64 {
	if p.sampled == 0 {
		return 0
	}
	per := float64(p.sampledNs)/float64(p.sampled) - clock
	if per < 0 {
		per = 0
	}
	return per * float64(p.calls)
}

// quantile returns the q-quantile of xs (linear interpolation between order
// statistics); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastQuartile returns the lower quartile of the pass times xs (a copy is
// sorted): the time the fastest quarter of a run's passes beat. On a shared
// host other tenants slow the benchmark in bursts of seconds to tens of
// seconds; a burst has to cover three quarters of a run to move this figure,
// against half of it to move the median.
func fastQuartile(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.25)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
