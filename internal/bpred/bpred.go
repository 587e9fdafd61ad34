// Package bpred implements the branch direction and target predictors used
// by the core (TAGE-SC-L-lite, per Table I) and by the 30-year MPKI timeline
// of Fig. 1 (bimodal, gshare, perceptron, TAGE). Direction predictors share
// the DirPredictor interface; Unit composes a direction predictor with an
// indirect-target cache and a return address stack into the front-end
// predictor the pipeline queries.
package bpred

import "fmt"

// DirPredictor predicts conditional branch directions.
type DirPredictor interface {
	// Name identifies the predictor in experiment output.
	Name() string
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains with the resolved direction and updates internal
	// history. Callers must invoke it for every conditional branch, in
	// program order, after Predict.
	Update(pc uint64, taken bool)
}

// dirs lists the direction predictors, oldest design first (the x-axis order
// of Fig. 1), with the publication year the timeline plots them at.
var dirs = []struct {
	name  string
	year  int
	build func() DirPredictor
}{
	{"bimodal", 1993, func() DirPredictor { return NewBimodal(14) }},
	{"gshare", 1993, func() DirPredictor { return NewGShare(14, 12) }},
	{"perceptron", 2001, func() DirPredictor { return NewPerceptron(10, 24) }},
	{"tage", 2006, func() DirPredictor { return NewTAGE(DefaultTAGEConfig()) }},
	{"tagescl", 2016, func() DirPredictor { return NewTAGESCL() }},
}

// dirIndex returns the position of name in dirs.
func dirIndex(name string) (int, error) {
	for i := range dirs {
		if dirs[i].name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("bpred: unknown predictor %q", name)
}

// CheckDir returns the error NewDir would return for name, without building
// the predictor.
func CheckDir(name string) error {
	_, err := dirIndex(name)
	return err
}

// NewDir constructs a direction predictor by name.
func NewDir(name string) (DirPredictor, error) {
	i, err := dirIndex(name)
	if err != nil {
		return nil, err
	}
	return dirs[i].build(), nil
}

// DirNames lists available direction predictors, oldest design first (the
// x-axis order of Fig. 1).
func DirNames() []string {
	names := make([]string, len(dirs))
	for i := range dirs {
		names[i] = dirs[i].name
	}
	return names
}

// DirYear returns the publication year associated with a predictor for the
// Fig. 1 timeline.
func DirYear(name string) int {
	if i, err := dirIndex(name); err == nil {
		return dirs[i].year
	}
	return 0
}

// ctr2 is a 2-bit saturating counter.
type ctr2 uint8

func (c ctr2) taken() bool { return c >= 2 }

func (c ctr2) update(taken bool) ctr2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is the classic PC-indexed 2-bit counter table.
type Bimodal struct {
	table []ctr2
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits int) *Bimodal {
	return &Bimodal{table: make([]ctr2, 1<<bits), mask: 1<<bits - 1}
}

// Name implements DirPredictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Predict implements DirPredictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[pc&b.mask].taken() }

// Update implements DirPredictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := pc & b.mask
	b.table[i] = b.table[i].update(taken)
}

// GShare XORs global history into the table index (McFarling 1993).
type GShare struct {
	table    []ctr2
	mask     uint64
	hist     uint64
	histBits int
}

// NewGShare returns a gshare predictor with 2^bits counters and histBits of
// global history.
func NewGShare(bits, histBits int) *GShare {
	return &GShare{table: make([]ctr2, 1<<bits), mask: 1<<bits - 1, histBits: histBits}
}

// Name implements DirPredictor.
func (g *GShare) Name() string { return "gshare" }

func (g *GShare) index(pc uint64) uint64 {
	return (pc ^ g.hist) & g.mask
}

// Predict implements DirPredictor.
func (g *GShare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements DirPredictor.
func (g *GShare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.hist <<= 1
	if taken {
		g.hist |= 1
	}
	g.hist &= 1<<g.histBits - 1
}

// Perceptron is Jiménez & Lin's perceptron predictor (HPCA 2001).
type Perceptron struct {
	weights  [][]int8 // [entry][histLen+1], index 0 is the bias
	mask     uint64
	hist     []bool
	theta    int
	histBits int
}

// NewPerceptron returns a perceptron predictor with 2^bits perceptrons over
// histBits of history.
func NewPerceptron(bits, histBits int) *Perceptron {
	w := make([][]int8, 1<<bits)
	for i := range w {
		w[i] = make([]int8, histBits+1)
	}
	return &Perceptron{
		weights:  w,
		mask:     1<<bits - 1,
		hist:     make([]bool, histBits),
		theta:    int(1.93*float64(histBits) + 14),
		histBits: histBits,
	}
}

// Name implements DirPredictor.
func (p *Perceptron) Name() string { return "perceptron" }

func (p *Perceptron) output(pc uint64) int {
	w := p.weights[pc&p.mask]
	y := int(w[0])
	for i, h := range p.hist {
		if h {
			y += int(w[i+1])
		} else {
			y -= int(w[i+1])
		}
	}
	return y
}

// Predict implements DirPredictor.
func (p *Perceptron) Predict(pc uint64) bool { return p.output(pc) >= 0 }

// Update implements DirPredictor.
func (p *Perceptron) Update(pc uint64, taken bool) {
	y := p.output(pc)
	pred := y >= 0
	if pred != taken || abs(y) <= p.theta {
		w := p.weights[pc&p.mask]
		w[0] = bump(w[0], taken)
		for i, h := range p.hist {
			w[i+1] = bump(w[i+1], taken == h)
		}
	}
	copy(p.hist, p.hist[1:])
	p.hist[len(p.hist)-1] = taken
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func bump(w int8, up bool) int8 {
	if up {
		if w < 127 {
			return w + 1
		}
		return w
	}
	if w > -127 {
		return w - 1
	}
	return w
}
