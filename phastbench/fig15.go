package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fig15Apps are core-bound, path-heavy apps (IPC 0.8-3), where the memory
// dependence predictor, the branch predictor and issue dominate host time.
var fig15Apps = []string{"511.povray", "500.perlbench_3", "525.x264_3", "502.gcc_1", "557.xz_1", "531.deepsjeng"}

// fig15Preds are the predictors Fig. 15 runs: the ideal baseline plus the
// five finite predictors.
func fig15Preds() []string { return append([]string{"ideal"}, sim.PredictorNames()...) }

// fig15Order is the app order of one seed. Fig. 15 runs each app's default
// stream, so the seed varies only the order apps are handed to the worker
// pool, never the amount of work.
func fig15Order(seed int64) []string {
	apps := append([]string(nil), fig15Apps...)
	x := uint64(seed)
	for i := len(apps) - 1; i > 0; i-- {
		x = splitmix(x)
		j := int(x % uint64(i+1))
		apps[i], apps[j] = apps[j], apps[i]
	}
	return apps
}

func fig15Config(app, pred string, n int) sim.Config {
	return sim.Config{App: app, Machine: "alderlake", Predictor: pred, Instructions: n}.Normalized()
}

// fig15Pass is what one child process reports about its cold figure.
type fig15Pass struct {
	WallNs  int64                      `json:"wall_ns"`
	Workers int                        `json:"workers"`
	Table   string                     `json:"table"`
	Rows    map[string]json.RawMessage `json:"rows"` // "app/pred" → stats.Run
	Metrics map[string]uint64          `json:"metrics"`
	RSSMB   float64                    `json:"rss_mb"` // the child's peak RSS
}

// runFig15Child regenerates Fig. 15 once, in this fresh process, on a new
// Runner over an empty disk run cache, and prints a fig15Pass.
func runFig15Child(seed int64, n int, dir string) error {
	if n <= 0 || dir == "" {
		return fmt.Errorf("-child fig15 needs -n and -dir")
	}
	var table bytes.Buffer
	reg := stats.NewMetrics()
	r := experiments.NewRunner(experiments.Options{
		Apps:         fig15Order(seed),
		Instructions: n,
		Out:          &table,
		Workers:      runtime.NumCPU(),
		CacheDir:     dir,
		Metrics:      reg,
	})
	defer r.Close()
	t0 := time.Now()
	if err := experiments.Fig15(r); err != nil {
		return err
	}
	wall := time.Since(t0)
	pass := fig15Pass{WallNs: wall.Nanoseconds(), Workers: r.Opt().Workers, Table: table.String(),
		Rows: map[string]json.RawMessage{}, Metrics: reg.Snapshot()}
	for _, app := range fig15Apps {
		for _, pred := range fig15Preds() {
			run, ok := r.CachedRun(runcache.Key(fig15Config(app, pred, n)))
			if !ok {
				return fmt.Errorf("row %s/%s missing from the run cache", app, pred)
			}
			row, err := json.Marshal(run)
			if err != nil {
				return err
			}
			pass.Rows[app+"/"+pred] = row
		}
	}
	pass.RSSMB = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(pass)
}

// runFig15 is the fig15-cold workload: the paper's headline figure, each
// pass in a fresh process with a cold disk run cache, so trace generation,
// prewarm, cache writes and the per-predictor batch barriers are all timed.
func runFig15(b *bench) error {
	n := 100_000
	if b.tiny {
		n = 5_000
	}
	apps := fig15Order(b.seed)
	var cfgs []sim.Config
	for _, app := range apps {
		for _, pred := range fig15Preds() {
			cfgs = append(cfgs, fig15Config(app, pred, n))
		}
	}
	// Direct in-process references for one config per app, the predictor
	// picked by the seed.
	preds := fig15Preds()
	var refCfgs []sim.Config
	for i, app := range apps {
		refCfgs = append(refCfgs, fig15Config(app, preds[(int(b.seed%int64(len(preds)))+len(preds)+i)%len(preds)], n))
	}
	su, err := beginSetUp(b, cfgs, refCfgs)
	if err != nil {
		return err
	}
	refs := map[string][]byte{}
	for i, c := range refCfgs {
		refs[c.App+"/"+c.Predictor], _ = json.Marshal(su.refs[i]) // plain scalars: cannot fail
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var first *fig15Pass
	var last fig15Pass
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start)+time.Duration(mean(walls)*float64(time.Second)/2) < b.seconds {
		pass, err := fig15Once(b, exe, n)
		b.attempt(1)
		if err != nil {
			b.fail("cold figure pass: %v", err)
			if len(walls) == 0 {
				return err
			}
			continue
		}
		if bad := checkFig15Pass(pass, first, refs, len(cfgs)); bad != "" {
			b.fail("cold figure pass: %s", bad)
		}
		if first == nil {
			first = pass
		}
		last = *pass
		walls = append(walls, float64(pass.WallNs)/1e9)
		b.childRSSMB = max(b.childRSSMB, pass.RSSMB)
	}
	if err := su.finish(b); err != nil {
		return err
	}
	rows := make([]*stats.Run, len(cfgs))
	var uops float64
	for i, c := range cfgs {
		var run stats.Run
		if err := json.Unmarshal(first.Rows[c.App+"/"+c.Predictor], &run); err != nil {
			return fmt.Errorf("row %s/%s: %w", c.App, c.Predictor, err)
		}
		rows[i] = &run
		uops += float64(run.Committed)
	}
	b.setE2E("uops_per_s", uops/fastQuartile(walls), "uop/s")
	b.setE2E("wall_s", fastQuartile(walls), "s")
	if b.tr == nil {
		return nil
	}

	b.setLayer("experiments.worker_util",
		float64(last.Metrics[runcache.CounterSimNanos])/(float64(last.WallNs)*float64(last.Workers)), "ratio")
	b.setLayer("experiments.runs_simulated", float64(last.Metrics[runcache.CounterRunsSimulated]), "count")
	if err := runcacheReplay(b, cfgs, rows); err != nil {
		return err
	}
	if _, err := coreLayers(b, cfgs, rows); err != nil {
		return err
	}
	b.setLayer("sim.rows_digest", rowsDigest(rows), "hash")
	return nil
}

// fig15Once runs one cold figure pass in a child process.
func fig15Once(b *bench, exe string, n int) (*fig15Pass, error) {
	dir, err := b.mkdirTemp("fig15-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var pass fig15Pass
	id, start := b.tr.begin()
	cmd := exec.Command(exe, "-child", "fig15", "-seed", strconv.FormatInt(b.seed, 10),
		"-n", strconv.Itoa(n), "-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	b.tr.end(id, start, "experiments.Fig15", 0, "", 0, 0)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(out, &pass); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &pass, nil
}

// checkFig15Pass compares one pass with the first pass (rows and rendered
// table byte for byte) and with the direct references, and checks that the
// cold runner simulated every config exactly once.
func checkFig15Pass(p, first *fig15Pass, refs map[string][]byte, configs int) string {
	if len(p.Rows) != configs {
		return fmt.Sprintf("%d rows, want %d", len(p.Rows), configs)
	}
	if got := p.Metrics[runcache.CounterRunsSimulated]; got != uint64(configs) {
		return fmt.Sprintf("cold runner simulated %d runs, want %d", got, configs)
	}
	for k, want := range refs {
		if !bytes.Equal(p.Rows[k], want) {
			return fmt.Sprintf("row %s differs from a direct sim.Run:\n got  %s\n want %s", k, p.Rows[k], want)
		}
	}
	if first == nil {
		return ""
	}
	if p.Table != first.Table {
		return "rendered table differs from the first pass"
	}
	for k, row := range first.Rows {
		if !bytes.Equal(p.Rows[k], row) {
			return fmt.Sprintf("row %s differs from the first pass", k)
		}
	}
	return ""
}

// runcacheReplay writes the figure's rows into a fresh disk store and reads
// them back, timing each Store.Put and Store.Get.
func runcacheReplay(b *bench, cfgs []sim.Config, rows []*stats.Run) error {
	dir, err := b.mkdirTemp("store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := runcache.NewStore(dir)
	var puts, gets []float64
	for i, cfg := range cfgs {
		key := runcache.Key(cfg)
		var perr error
		sp := b.tr.record("runcache.Put", 0, func(int64) { perr = store.Put(key, cfg, rows[i]) })
		if perr != nil {
			return perr
		}
		puts = append(puts, float64(sp.dur())/1e3)
	}
	for i, cfg := range cfgs {
		key := runcache.Key(cfg)
		var got *stats.Run
		var ok bool
		sp := b.tr.record("runcache.Get", 0, func(int64) { got, ok = store.Get(key) })
		b.attempt(1)
		if !ok || *got != *rows[i] {
			b.fail("runcache: row %s/%s did not read back identical", cfg.App, cfg.Predictor)
		}
		gets = append(gets, float64(sp.dur())/1e3)
	}
	b.setLayer("runcache.put_us", median(puts), "us")
	b.setLayer("runcache.disk_get_us", median(gets), "us")
	return nil
}
