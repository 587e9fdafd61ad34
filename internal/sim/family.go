package sim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/histutil"
	"repro/internal/mdp"
	"repro/internal/pipeline"
)

// Family is one memory dependence predictor family: the name its specs
// start with, how its argument is read, how it is built, its SRAM energy
// model and where the paper's figures plot it.
type Family struct {
	// Name is the spec name ("phast" in "phast:256").
	Name string
	// Year places the family on Fig. 1's timeline; 0 keeps it off.
	Year int
	// Headline marks the finite predictors of the paper's headline
	// comparison (Table II, Figs. 13–16).
	Headline bool
	// Budgets are the arguments of Fig. 13's storage sweep; a headline
	// family without them plots its one configuration.
	Budgets []int

	arg        *argRule // nil: the family takes no argument
	build      func(arg int) mdp.Predictor
	structures func(arg int) []energy.Structure // nil: no modelled SRAM
}

// argRule is a family's numeric spec argument: the value a bare name (or
// "name:") builds with, and the accepted range.
type argRule struct {
	def, min, max int
	pow2          bool // the argument sizes a power-of-two indexed table
}

// tableSize is the rule of the families whose argument sizes their tables.
// The cap keeps the largest accepted predictor cheap to build.
func tableSize(def int) *argRule { return &argRule{def: def, min: 16, max: 65536, pow2: true} }

// maxHistory bounds the history lengths of the unlimited predictors: the
// history register cannot reproduce a longer one.
const maxHistory = pipeline.HistCap

// fourWay is one 4-way set-associative table of entries entryBits wide,
// probed parallel times per access.
func fourWay(name string, entries, entryBits, parallel int) []energy.Structure {
	return []energy.Structure{{Name: name, Entries: entries, EntryBits: entryBits, AccessBits: 4 * entryBits, Parallel: parallel}}
}

// direct is one direct-mapped table, read once per access.
func direct(name string, entries, entryBits int) energy.Structure {
	return energy.Structure{Name: name, Entries: entries, EntryBits: entryBits, AccessBits: entryBits, Parallel: 1}
}

// families is the one list of predictor families. Its order is the output
// order of every figure that plots a filtered view of it (Fig. 1's
// timeline, the headline comparison, Fig. 13's sweep).
var families = []Family{
	{Name: "storesets", Year: 1998, Headline: true, Budgets: []int{2048, 4096, 8192, 16384},
		arg: tableSize(mdp.DefaultStoreSetsConfig().SSITEntries),
		build: func(ssit int) mdp.Predictor {
			cfg := mdp.DefaultStoreSetsConfig()
			cfg.SSITEntries, cfg.LFSTEntries = ssit, ssit/2
			return mdp.NewStoreSets(cfg)
		},
		structures: func(ssit int) []energy.Structure {
			return []energy.Structure{direct("ssit", ssit, 13), direct("lfst", ssit/2, 11)}
		}},
	{Name: "cht", Year: 1999,
		build:      func(int) mdp.Predictor { return mdp.DefaultCHT() },
		structures: func(int) []energy.Structure { return []energy.Structure{direct("cht", 16384, 2)} }},
	{Name: "storevector", Year: 2006,
		build:      func(int) mdp.Predictor { return mdp.DefaultStoreVector() },
		structures: func(int) []energy.Structure { return []energy.Structure{direct("vectors", 4096, 64)} }},
	{Name: "nosq", Year: 2006, Headline: true, Budgets: []int{512, 1024, 2048, 4096},
		arg: tableSize(mdp.DefaultNoSQConfig().EntriesPerTable),
		build: func(entries int) mdp.Predictor {
			cfg := mdp.DefaultNoSQConfig()
			cfg.EntriesPerTable = entries
			return mdp.NewNoSQ(cfg)
		},
		structures: func(entries int) []energy.Structure { return fourWay("nosq-table", entries, 22+7+7+2, 2) }},
	// MDP-TAGE: 12 components, 16K entries total, average entry ≈ 23 bits
	// (7–15-bit tags + 7-bit distance + u).
	{Name: "mdptage", Year: 2018, Headline: true,
		build:      func(int) mdp.Predictor { return mdp.NewMDPTAGE(mdp.DefaultMDPTAGEConfig()) },
		structures: func(int) []energy.Structure { return fourWay("mdptage-comp", 16384/12, 23, 12) }},
	{Name: "mdptage-s", Headline: true,
		build:      func(int) mdp.Predictor { return mdp.NewMDPTAGE(mdp.ShortMDPTAGEConfig()) },
		structures: func(int) []energy.Structure { return fourWay("mdptage-s-table", 512, 16+7+1+2, 8) }},
	{Name: "phast", Year: 2024, Headline: true, Budgets: []int{32, 64, 128, 256, 512},
		arg:        tableSize(core.DefaultConfig().Sets),
		build:      func(sets int) mdp.Predictor { return core.New(core.BudgetConfig(sets)) },
		structures: func(sets int) []energy.Structure { return fourWay("phast-table", sets*4, 16+7+4+2, 8) }},
	{Name: "perceptron-mdp", build: func(int) mdp.Predictor { return mdp.DefaultPerceptronMDP() }},
	{Name: "phast-conf", arg: &argRule{def: int(core.DefaultConfig().ConfMax), min: 1, max: 255},
		build: func(conf int) mdp.Predictor {
			cfg := core.DefaultConfig()
			cfg.ConfMax = uint8(conf)
			return core.New(cfg)
		}},
	{Name: "phast-tables", arg: &argRule{def: len(core.Histories), min: 1, max: len(core.Histories)},
		build: func(n int) mdp.Predictor {
			cfg := core.DefaultConfig()
			cfg.Histories = cfg.Histories[:n]
			return core.New(cfg)
		}},
	{Name: "ideal", build: func(int) mdp.Predictor { return mdp.NewIdeal() }},
	{Name: "none", build: func(int) mdp.Predictor { return mdp.NewNone() }},
	{Name: "alwayswait", build: func(int) mdp.Predictor { return mdp.NewAlwaysWait() }},
	// 0 leaves UnlimitedPHAST's history length uncapped.
	{Name: "unlimited-phast", arg: &argRule{def: 0, min: 0, max: maxHistory},
		build: func(maxHist int) mdp.Predictor { return core.NewUnlimitedPHAST(maxHist) }},
	{Name: "unlimited-nosq", arg: &argRule{def: 8, min: 0, max: maxHistory},
		build: func(h int) mdp.Predictor { return mdp.NewUnlimitedNoSQ(h) }},
	{Name: "unlimited-mdptage", build: func(int) mdp.Predictor { return mdp.NewUnlimitedMDPTAGE() }},
}

// Families lists every predictor family in table order.
func Families() []Family { return append([]Family(nil), families...) }

// PredictorNames lists the finite predictors of the paper's headline
// comparison (Fig. 13–16 order).
func PredictorNames() []string {
	var names []string
	for _, f := range families {
		if f.Headline {
			names = append(names, f.Name)
		}
	}
	return names
}

// BudgetSpecs returns the specs of f's Fig. 13 storage sweep.
func (f Family) BudgetSpecs() []string {
	if len(f.Budgets) == 0 {
		return []string{f.Name}
	}
	specs := make([]string, len(f.Budgets))
	for i, b := range f.Budgets {
		specs[i] = f.Name + ":" + strconv.Itoa(b)
	}
	return specs
}

// parseSpec splits spec into its family and argument, range-checking the
// argument. Errors are *specError.
func parseSpec(spec string) (*Family, int, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	var f *Family
	for i := range families {
		if families[i].Name == name {
			f = &families[i]
			break
		}
	}
	switch {
	case f == nil:
		return nil, 0, &specError{spec, "unknown predictor family"}
	case f.arg == nil && hasArg:
		return nil, 0, &specError{spec, name + " takes no argument"}
	case f.arg == nil:
		return f, 0, nil
	case arg == "":
		return f, f.arg.def, nil
	}
	r := f.arg
	v, err := strconv.Atoi(arg)
	switch {
	case errors.Is(err, strconv.ErrRange) || err == nil && (v < r.min || v > r.max):
		return nil, 0, &specError{spec, fmt.Sprintf("argument out of range [%d, %d]", r.min, r.max)}
	case err != nil:
		return nil, 0, &specError{spec, "non-integer argument"}
	case r.pow2 && !histutil.Pow2(v):
		return nil, 0, &specError{spec, "argument is not a power of two"}
	}
	return f, v, nil
}

// canonicalSpec returns the one spelling of a valid spec: the bare family
// name for its default argument ("phast", not "phast:", "phast:128" or
// "phast:0128"), else "name:<decimal>". An invalid spec is returned as is,
// so its error surfaces where it is built.
func canonicalSpec(spec string) string {
	f, arg, err := parseSpec(spec)
	switch {
	case err != nil:
		return spec
	case f.arg == nil || arg == f.arg.def:
		return f.Name
	}
	return f.Name + ":" + strconv.Itoa(arg)
}

// NewPredictor builds a predictor from its spec string: a family name from
// the table above, then ":<arg>" for a family that takes an argument (an
// empty argument means the family's default). A rejected spec returns an
// error naming it that KindOf classifies as ErrConfig.
func NewPredictor(spec string) (mdp.Predictor, error) {
	f, arg, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return f.build(arg), nil
}

// CheckPredictor returns the error NewPredictor would return for spec,
// without building the predictor.
func CheckPredictor(spec string) error {
	_, _, err := parseSpec(spec)
	return err
}

// Structures returns the SRAM structures of the predictor spec builds, for
// the energy model (internal/energy). Storage-free predictors have none.
func Structures(spec string) ([]energy.Structure, error) {
	f, arg, err := parseSpec(spec)
	if err != nil || f.structures == nil {
		return nil, err
	}
	return f.structures(arg), nil
}
