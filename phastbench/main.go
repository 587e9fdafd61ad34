// Command phastbench is the repository's end-to-end and per-layer benchmark.
// It drives the simulator's layers from outside, through their public
// functions, on four workloads (see README.md), checks every simulated and
// served output, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds it from the
// checkout's sources:
//
//	bash phastbench/run.sh --workload sim-membound --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics with tracing off; --trace 1 is a
// separate run that records spans at every layer boundary and prints the
// per-layer metrics instead. --selftest runs every workload once at a tiny
// size in both modes and checks the printed metric names against
// BENCHMARK.json in both directions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDir is where run.sh keeps the binary and where the benchmark keeps
// its scratch files and span logs, relative to the checkout root.
const buildDir = ".bench_build/phastbench"

// specPath is the benchmark definition, at the checkout root, that every
// run checks its printed metric names and units against.
const specPath = "BENCHMARK.json"

// workloadDef is one named benchmark input set and the function that runs
// it.
type workloadDef struct {
	name string
	run  func(b *bench) error
}

// workloads are every workload the program can run. BENCHMARK.json declares
// the ones that are measured; sim-interval and serve-fleet are not, and only
// their tiny traced probes run, to fill the oracle, parsim, server, cluster
// and serving metrics of every traced result.
var workloads = []workloadDef{
	{"sim-membound", runMembound},
	{"fig15-cold", runFig15},
	{"sim-interval", runInterval},
	{"serve-fleet", runServe},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one workload run: its inputs' seed and size, the
// tracer (nil with tracing off), the operation counts and the metrics it
// produced.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	tiny    bool
	tr      *tracer
	tmp     string // scratch directory inside the checkout, removed at exit

	attempted, failed atomic.Int64

	mu    sync.Mutex
	e2e   map[string]metric
	layer map[string]metric
	// childRSSMB is the largest peak RSS a child process reported.
	childRSSMB float64
}

func newBench(name string, seed int64, seconds time.Duration, tiny bool, traced bool, tmp string) *bench {
	b := &bench{name: name, seed: seed, seconds: seconds, tiny: tiny, tmp: tmp,
		e2e: map[string]metric{}, layer: map[string]metric{}}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// attempt counts n operations.
func (b *bench) attempt(n int) { b.attempted.Add(int64(n)) }

// fail counts one failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	fmt.Fprintf(os.Stderr, "phastbench: %s: FAIL: %s\n", b.name, fmt.Sprintf(format, args...))
}

func (b *bench) setE2E(name string, v float64, unit string) {
	b.mu.Lock()
	b.e2e[name] = metric{v, unit}
	b.mu.Unlock()
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.mu.Lock()
	b.layer[name] = metric{v, unit}
	b.mu.Unlock()
}

// measured sets peak_rss_mb at the end of the measured section, before the
// set-up repetitions that follow it, whose extra streams, cores and fleets
// would otherwise count.
func (b *bench) measured() {
	b.setE2E("peak_rss_mb", max(peakRSSMB(), b.childRSSMB), "MB")
}

// mkdirTemp makes a fresh directory under the run's scratch directory.
func (b *bench) mkdirTemp(pattern string) (string, error) {
	return os.MkdirTemp(b.tmp, pattern)
}

// spec is the part of BENCHMARK.json the program checks its output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// nameMismatch compares printed metrics with the declared ones in both
// directions, units included; it returns one line per difference.
func nameMismatch(got map[string]metric, want []specMetric) []string {
	var out []string
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			out = append(out, "declared but not printed: "+m.Name)
		case g.Unit != m.Unit:
			out = append(out, fmt.Sprintf("unit of %s: printed %q, declared %q", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !declared[name] {
			out = append(out, "printed but not declared: "+name)
		}
	}
	sort.Strings(out)
	return out
}

// peakRSSMB returns the peak resident set size of this process in MiB
// (getrusage reports KiB). Children report their own: RUSAGE_CHILDREN would
// also count the build that run.sh ran before exec-ing this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostFacts describes the machine and build a result was measured on. The
// commit is known only when the binary was built inside a git work tree;
// the source digest identifies the code measured either way.
func hostFacts() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"commit":        commit,
		"source_digest": sourceDigest("."),
	}
}

// sourceDigest is a SHA-256 over the path and content of every Go source
// and go.mod file under root, skipping hidden directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: sim-membound, fig15-cold, sim-interval or serve-fleet")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "length of the measured section, in seconds")
		traceArg = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
		tiny     = flag.Bool("tiny", false, "run at a tiny input size (the self-test size)")
		selftest = flag.Bool("selftest", false, "run every workload once at the tiny size in both modes and check the metric names against BENCHMARK.json")
		child    = flag.String("child", "", "internal: run one cold figure pass in this process (used by fig15-cold)")
		childN   = flag.Int("n", 0, "internal: micro-ops per run for -child")
		childDir = flag.String("dir", "", "internal: run-cache directory for -child")
	)
	flag.Parse()
	if *child != "" {
		if err := runFig15Child(*seed, *childN, *childDir); err != nil {
			fmt.Fprintln(os.Stderr, "phastbench child:", err)
			os.Exit(1)
		}
		return
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phastbench:", err)
		os.Exit(2)
	}
	if *selftest {
		if err := runSelfTest(sp); err != nil {
			fmt.Fprintln(os.Stderr, "phastbench: self-test:", err)
			os.Exit(1)
		}
		fmt.Println("phastbench: self-test ok")
		return
	}
	if *traceArg != 0 && *traceArg != 1 {
		fmt.Fprintln(os.Stderr, "phastbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := runWorkload(sp, *name, *seed, time.Duration(*seconds*float64(time.Second)), *tiny, *traceArg == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phastbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phastbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload runs one workload and assembles its result. With traced set,
// the workload runs traced at its own size, and every per-layer metric it
// does not measure itself is filled by a tiny traced probe of the workload
// that owns that layer, so each traced result carries the whole layer table.
func runWorkload(sp *spec, name string, seed int64, seconds time.Duration, tiny, traced bool) (*result, error) {
	w, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	hf, _ := json.Marshal(hostFacts())
	fmt.Printf("host %s\n", hf)

	b := newBench(name, seed, seconds, tiny, traced, tmp)
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	var out map[string]metric
	var want []specMetric
	if traced {
		for _, v := range workloads {
			if v.name == name || !missingLayer(b.layer, sp.PerLayer) {
				continue
			}
			p := newBench(v.name, seed, min(seconds/8, time.Second), true, true, tmp)
			if err := v.run(p); err != nil {
				return nil, fmt.Errorf("%s probe: %w", v.name, err)
			}
			for k, m := range p.layer {
				if _, ok := b.layer[k]; !ok {
					b.layer[k] = m
				}
			}
			attempted += p.attempted.Load()
			failed += p.failed.Load()
		}
		if err := b.tr.write(filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))); err != nil {
			fmt.Fprintln(os.Stderr, "phastbench: writing spans:", err)
		}
		out, want = b.layer, sp.PerLayer
	} else {
		out, want = b.e2e, sp.EndToEnd
	}
	mism := nameMismatch(out, want)
	for _, m := range mism {
		fmt.Fprintln(os.Stderr, "phastbench: metric names:", m)
	}
	if attempted < 1 {
		attempted = 1
		failed = 1
	}
	return &result{
		Correct:   failed == 0 && len(mism) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   out,
	}, nil
}

// missingLayer reports whether some declared per-layer metric is not set.
func missingLayer(got map[string]metric, want []specMetric) bool {
	for _, m := range want {
		if _, ok := got[m.Name]; !ok {
			return true
		}
	}
	return false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
