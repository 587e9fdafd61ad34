// phastload is the load generator and scenario benchmark harness for phastd
// (ReqBench-style): declarative workload files in, machine-readable
// throughput/latency tables out.
//
// A scenario describes one traffic experiment — target node(s), arrival
// process, and request mix — and the harness reports client-side latency
// percentiles next to the servers' own counter deltas (admission control,
// coalescing, cache tiers, fleet peer traffic), so a 1-node-vs-3-node
// scaling curve is a one-command, reproducible artifact:
//
//	phastload -scenario scenarios/fleet.json -out results.csv
//
// where fleet.json holds one or more scenarios:
//
//	{"scenarios": [{
//	  "name": "fleet-3n",
//	  "targets": ["http://10.0.0.1:8091", "http://10.0.0.2:8091", "http://10.0.0.3:8091"],
//	  "mode": "closed", "concurrency": 16, "requests": 500,
//	  "dup": 0.6, "pool": 8, "zipf_s": 1.2,
//	  "config": {"App": "511.povray", "Predictor": "phast", "Instructions": 20000},
//	  "seed": 1
//	}]}
//
// Requests round-robin across targets (any fleet member accepts any
// config); the CSV gets one target="all" row with summed metrics deltas
// plus, for multi-target scenarios, one row per member with its own deltas
// (restart-reset counters are clamped to their post-restart values). The
// harness doubles as the fleet chaos driver: "chaos" schedules shell
// commands mid-run (kill a node at +2s, restart it after 300 requests),
// "failover": true makes the client retry transport/gateway failures
// against the remaining targets, "think_ms" paces closed-loop workers, and
// -digests records a sha256 per result row so two runs over the same mix
// can be compared byte-for-byte. The mix knobs:
// dup is the probability a request re-asks one of pool known configs
// (duplicates in flight exercise coalescing, duplicates after exercise the
// caches); zipf_s > 1 skews which pool config is re-asked (a Zipfian
// popularity curve — a few configs go viral); burst modulates open-loop
// arrivals ({"period_ms": 2000, "width_ms": 250, "factor": 8} fires an
// 8x arrival spike for the first 250ms of every 2s).
//
// Multi-tenant scenarios: "tenant" stamps every request with the
// X-Phast-Tenant header (the identity the server's quotas and weighted-fair
// scheduler key on); "upload" runs a bring-your-own-workload phase before
// load starts — the harness generates a trace, POSTs it to /v1/traces, and
// substitutes the minted digest for "@upload" in the config's App, so
// {"config": {"App": "trace:@upload"}, "upload": {"app": "519.lbm",
// "insts": 20000, "seed": 7, "target": 0}} runs an uploaded trace by
// digest; and consecutive scenarios sharing a non-empty "group" run
// concurrently instead of sequentially — a heavy and a light tenant
// loading the same fleet at the same time is the two-tenant fairness
// experiment. Note that concurrent scenarios over the same targets see
// each other's traffic in their server-side counter deltas; the
// client-side columns stay per-scenario.
//
// A "job" phase drives the server-side autotuner (phastd -jobs-dir): the
// harness POSTs the embedded spec to /v1/jobs, polls GET /v1/jobs/{id}
// until the job is terminal, and can write the winner's stats table and
// config to files ({"job": {"spec": {...}, "table_out": "winner.txt",
// "config_out": "winner.json"}}). A scenario with a job and no "requests"
// is job-only — the autotuner smoke (scripts/jobs_smoke.sh) is built from
// these; a scenario with both runs the job first, then the load, so the
// counter deltas capture the two together.
//
// -scenario is required; -out, -digests and -wait are the only other flags.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/runcache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Burst modulates an open-loop arrival process: for the first WidthMS of
// every PeriodMS window, the arrival rate is multiplied by Factor.
type Burst struct {
	PeriodMS int64   `json:"period_ms"`
	WidthMS  int64   `json:"width_ms"`
	Factor   float64 `json:"factor"`
}

// ChaosEvent schedules one shell command against the environment mid-run —
// the fleet-chaos hook (kill a node, restart it, partition a link). The
// trigger is either a wall-clock offset from load start (at_ms) or a
// completed-request count (after_requests); exec runs via sh -c,
// synchronously within its own event (so "kill X; sleep 1; restart X"
// chains work), concurrently with the load. Events that have not fired by
// the end of the load fire then — a scheduled recovery must happen even if
// the load finishes early, or the harness would leave dead nodes behind.
type ChaosEvent struct {
	AtMS          int64  `json:"at_ms,omitempty"`
	AfterRequests int64  `json:"after_requests,omitempty"`
	Exec          string `json:"exec"`
}

// UploadSpec is a scenario's bring-your-own-workload phase: before load
// starts, the harness generates a trace locally (the same generator the
// server's built-in apps use, so the bytes are reproducible from the seed),
// uploads it via POST /v1/traces, and substitutes the returned digest for
// the "@upload" placeholder in the scenario config's App — a run mix over
// "trace:@upload" then exercises the full uploaded-trace path: store
// admission, ring replication, peer trace fetch, run-by-digest.
type UploadSpec struct {
	App   string `json:"app,omitempty"`
	Insts int    `json:"insts,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Target indexes the scenario's targets: which member receives the
	// upload. Running against the OTHER members is the point — it proves
	// any node can serve a trace it never ingested.
	Target int `json:"target,omitempty"`
}

// JobPhase drives a server-side autotuner job before the load starts: POST
// the spec to /v1/jobs on the chosen target, poll GET /v1/jobs/{id} until
// terminal, and optionally persist the winner's artifacts. The harness
// fails if the job fails, is cancelled, or outlives the timeout — a
// scenario that asked for a job cannot meaningfully report without it.
type JobPhase struct {
	// Spec is the job spec JSON, embedded verbatim (see internal/jobs).
	Spec json.RawMessage `json:"spec"`
	// Target indexes the scenario's targets: which member receives the
	// submission and the polls.
	Target int `json:"target,omitempty"`
	// PollMS is the status poll period (default 200).
	PollMS int64 `json:"poll_ms,omitempty"`
	// TimeoutMS bounds the whole job from submission to terminal state
	// (default 180000).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TableOut, when set, receives the winner's stats table verbatim —
	// byte-comparable against `paperfigs -config` over the same config.
	TableOut string `json:"table_out,omitempty"`
	// ConfigOut, when set, receives the winner's config as JSON (feed it
	// back to `paperfigs -config "$(cat ...)"`).
	ConfigOut string `json:"config_out,omitempty"`
}

// Scenario is one declarative traffic experiment. Zero-valued fields take
// the defaults norm fills in.
type Scenario struct {
	Name    string   `json:"name"`
	Targets []string `json:"targets"`
	// Tenant stamps every request (uploads and runs) with the X-Phast-Tenant
	// header — the identity the server's quotas and weighted-fair scheduler
	// key on. Empty means the server's default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Group: consecutive scenarios sharing a non-empty group run
	// concurrently (started together, joined together) instead of
	// sequentially — how a two-tenant fairness experiment puts a heavy and
	// a light tenant on the same fleet at the same time.
	Group string `json:"group,omitempty"`
	// Upload generates and uploads a trace before load starts; see UploadSpec.
	Upload *UploadSpec `json:"upload,omitempty"`
	// Job submits an autotuner job and waits for it before load starts; a
	// scenario with a job and Requests == 0 is job-only (no load loop).
	Job *JobPhase `json:"job,omitempty"`
	// Mode is the arrival process: "closed" (Concurrency workers, next
	// request on completion) or "open" (fixed QPS; latency then includes
	// server-side queueing under overload).
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	QPS         float64 `json:"qps"`
	// Requests stops the run after this many requests (0 = duration-bound).
	Requests   int   `json:"requests"`
	DurationMS int64 `json:"duration_ms"`
	// Dup is the probability a request re-asks one of Pool known configs.
	Dup  float64 `json:"dup"`
	Pool int     `json:"pool"`
	// ZipfS skews duplicate popularity within the pool (values > 1; 0 or 1
	// means uniform): higher = fewer configs take more of the traffic.
	ZipfS float64 `json:"zipf_s"`
	Burst *Burst  `json:"burst,omitempty"`
	// ThinkMS pauses each closed-loop worker between requests (client think
	// time), turning pure back-to-back load into a paced session mix.
	ThinkMS int64 `json:"think_ms"`
	// Failover retries a request that failed at the transport level or with
	// a gateway-ish status (502/503/504) against the remaining targets, one
	// pass — how a real client rides out a node restart. The total latency
	// (all attempts) is what gets recorded.
	Failover bool `json:"failover"`
	// Chaos schedules shell commands against the environment mid-run.
	Chaos []ChaosEvent `json:"chaos,omitempty"`
	// Config is the base simulation config; each request stamps a Seed from
	// the mix, so distinct seeds are distinct cache keys.
	Config    sim.Config `json:"config"`
	TimeoutMS int64      `json:"timeout_ms"`
	Seed      int64      `json:"seed"`
}

// norm fills a scenario's defaults and validates the knobs.
func (sc Scenario) norm() (Scenario, error) {
	if sc.Name == "" {
		sc.Name = "adhoc"
	}
	if len(sc.Targets) == 0 {
		return sc, fmt.Errorf("scenario %q has no targets", sc.Name)
	}
	for i, t := range sc.Targets {
		sc.Targets[i] = strings.TrimRight(strings.TrimSpace(t), "/")
	}
	if sc.Mode == "" {
		sc.Mode = "closed"
	}
	if sc.Mode != "closed" && sc.Mode != "open" {
		return sc, fmt.Errorf("scenario %q: unknown mode %q", sc.Name, sc.Mode)
	}
	if sc.Concurrency <= 0 {
		sc.Concurrency = 16
	}
	if sc.QPS <= 0 {
		sc.QPS = 50
	}
	if sc.DurationMS <= 0 {
		sc.DurationMS = 10_000
	}
	if sc.Dup < 0 || sc.Dup > 1 {
		return sc, fmt.Errorf("scenario %q: dup %g out of [0,1]", sc.Name, sc.Dup)
	}
	if sc.Pool <= 0 {
		sc.Pool = 4
	}
	if sc.ZipfS != 0 && sc.ZipfS <= 1 {
		return sc, fmt.Errorf("scenario %q: zipf_s must be > 1 (or 0 for uniform)", sc.Name)
	}
	if b := sc.Burst; b != nil && (b.PeriodMS <= 0 || b.WidthMS <= 0 || b.WidthMS > b.PeriodMS || b.Factor <= 0) {
		return sc, fmt.Errorf("scenario %q: bad burst %+v (want 0 < width_ms <= period_ms, factor > 0)", sc.Name, *b)
	}
	if sc.ThinkMS < 0 {
		return sc, fmt.Errorf("scenario %q: negative think_ms", sc.Name)
	}
	for i, ev := range sc.Chaos {
		if ev.Exec == "" {
			return sc, fmt.Errorf("scenario %q: chaos[%d] has no exec", sc.Name, i)
		}
		if ev.AtMS < 0 || ev.AfterRequests < 0 {
			return sc, fmt.Errorf("scenario %q: chaos[%d] has a negative trigger", sc.Name, i)
		}
	}
	if up := sc.Upload; up != nil {
		if up.App == "" {
			up.App = "511.povray"
		}
		if up.Insts <= 0 {
			up.Insts = 20_000
		}
		if up.Seed == 0 {
			up.Seed = 1
		}
		if up.Target < 0 || up.Target >= len(sc.Targets) {
			return sc, fmt.Errorf("scenario %q: upload target %d out of range (have %d targets)",
				sc.Name, up.Target, len(sc.Targets))
		}
	}
	if jp := sc.Job; jp != nil {
		if len(jp.Spec) == 0 {
			return sc, fmt.Errorf("scenario %q: job phase has no spec", sc.Name)
		}
		if jp.Target < 0 || jp.Target >= len(sc.Targets) {
			return sc, fmt.Errorf("scenario %q: job target %d out of range (have %d targets)",
				sc.Name, jp.Target, len(sc.Targets))
		}
		if jp.PollMS <= 0 {
			jp.PollMS = 200
		}
		if jp.TimeoutMS <= 0 {
			jp.TimeoutMS = 180_000
		}
	}
	if strings.Contains(sc.Config.App, "@upload") && sc.Upload == nil {
		return sc, fmt.Errorf("scenario %q: config app %q references @upload but has no upload spec",
			sc.Name, sc.Config.App)
	}
	if sc.Config.App == "" {
		sc.Config.App = "511.povray"
	}
	if sc.Config.Predictor == "" {
		sc.Config.Predictor = "phast"
	}
	if sc.Config.Machine == "" {
		sc.Config.Machine = "alderlake"
	}
	if sc.Config.Instructions == 0 {
		sc.Config.Instructions = 20_000
	}
	if sc.TimeoutMS == 0 {
		sc.TimeoutMS = 60_000
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc, nil
}

// scenarioFile is the top-level shape of a -scenario JSON document.
type scenarioFile struct {
	Scenarios []Scenario `json:"scenarios"`
}

func loadScenarios(path string) ([]Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f scenarioFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(f.Scenarios) == 0 {
		return nil, fmt.Errorf("%s: no scenarios", path)
	}
	for i := range f.Scenarios {
		if f.Scenarios[i], err = f.Scenarios[i].norm(); err != nil {
			return nil, err
		}
	}
	return f.Scenarios, nil
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "phastload:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, prints the per-scenario tables
// to stdout and chaos and progress lines to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("phastload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "", "scenario JSON file (required)")
		out      = fs.String("out", "", "append machine-readable result rows to this CSV file")
		digests  = fs.String("digests", "", "append scenario,seed,sha256(run) rows to this file (bit-exactness artifact)")
		wait     = fs.Duration("wait", 0, "poll every target's /healthz for up to this long before starting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenario == "" {
		return errors.New("-scenario is required")
	}
	scenarios, err := loadScenarios(*scenario)
	if err != nil {
		return err
	}

	if *wait > 0 {
		targets := map[string]bool{}
		for _, sc := range scenarios {
			for _, t := range sc.Targets {
				targets[t] = true
			}
		}
		for t := range targets {
			if err := waitHealthy(t, *wait); err != nil {
				return err
			}
		}
	}

	h := &harness{stdout: &lockedWriter{w: stdout}, stderr: &lockedWriter{w: stderr}, digests: *digests}
	// Consecutive scenarios sharing a non-empty group run concurrently —
	// the two-tenant fairness experiment needs a heavy and a light tenant
	// loading the same fleet at the same time. Everything else runs in file
	// order, one at a time; rows keep file order either way.
	var rows []resultRow
	for i := 0; i < len(scenarios); {
		j := i + 1
		for scenarios[i].Group != "" && j < len(scenarios) && scenarios[j].Group == scenarios[i].Group {
			j++
		}
		if j-i > 1 {
			fmt.Fprintf(h.stdout, "== group %s: %d scenarios concurrently ==\n", scenarios[i].Group, j-i)
		}
		group, errs := make([][]resultRow, j-i), make([]error, j-i)
		var wg sync.WaitGroup
		for k, sc := range scenarios[i:j] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				group[k], errs[k] = h.runScenario(sc)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		for _, r := range group {
			rows = append(rows, r...)
		}
		i = j
	}
	if *out != "" {
		if err := writeCSV(*out, rows); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "phastload: %d result row(s) appended to %s\n", len(rows), *out)
	}
	return nil
}

// harness is one invocation's output streams and digest artifact path,
// shared by every scenario it runs.
type harness struct {
	stdout, stderr io.Writer
	digests        string // -digests path ("" = none)
}

// lockedWriter serialises the writes of concurrently running scenarios.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// waitHealthy polls target/healthz until it answers 200 or the budget runs
// out — so scripts can start a fleet and the harness back to back.
func waitHealthy(target string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(target + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("target %s not healthy after %s", target, budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runScenario executes one scenario, prints the human tables, and returns
// the machine-readable rows: one summed "all" row, plus one row per target
// when there are several (who actually did the work — essential when a
// chaos event reshuffles ring ownership mid-run).
func (h *harness) runScenario(sc Scenario) ([]resultRow, error) {
	fmt.Fprintf(h.stdout, "== scenario %s: %s over %d target(s), dup=%g pool=%d zipf=%g ==\n",
		sc.Name, sc.Mode, len(sc.Targets), sc.Dup, sc.Pool, sc.ZipfS)

	before, err := fetchMetricsEach(sc.Targets)
	if err != nil {
		return nil, fmt.Errorf("server unreachable: %w", err)
	}

	// Upload after the "before" snapshot so the ingestion counters land
	// inside this scenario's delta.
	if sc.Upload != nil {
		digest, err := h.uploadTrace(sc)
		if err != nil {
			return nil, err
		}
		sc.Config.App = strings.ReplaceAll(sc.Config.App, "@upload", digest)
	}

	// The job phase also runs inside the delta: a job-only scenario's CSV
	// row then reports exactly what the job cost the fleet (runs simulated,
	// cache traffic, trial rows).
	var jobStatus *jobs.Status
	if sc.Job != nil {
		if jobStatus, err = h.runJob(sc); err != nil {
			return nil, err
		}
	}

	// Pre-plan the request mix so the workload is reproducible under the
	// scenario seed. Duplicate-pool seeds are 1..pool (zipf-skewed when
	// configured); unique requests get seeds far above the pool.
	rng := rand.New(rand.NewSource(sc.Seed))
	var zipf *rand.Zipf
	if sc.ZipfS > 1 && sc.Pool > 1 {
		zipf = rand.NewZipf(rng, sc.ZipfS, 1, uint64(sc.Pool-1))
	}
	seedOf := func() int64 {
		if rng.Float64() < sc.Dup {
			if zipf != nil {
				return int64(1 + zipf.Uint64())
			}
			return int64(1 + rng.Intn(sc.Pool))
		}
		return 1_000_000 + rng.Int63n(1<<40)
	}

	planned := sc.Requests
	if planned == 0 {
		planned = 1 << 20 // effectively duration-bound
	}
	lg := &loadgen{
		targets:   sc.Targets,
		tenant:    sc.Tenant,
		client:    &http.Client{},
		cfg:       sc.Config,
		timeoutMS: sc.TimeoutMS,
		thinkMS:   sc.ThinkMS,
		failover:  sc.Failover,
		digest:    h.digests != "",
		unique:    map[int64]bool{},
		digests:   map[int64]string{},
	}

	deadline := time.Now().Add(time.Duration(sc.DurationMS) * time.Millisecond)
	start := time.Now()
	chaosDone := make(chan struct{})
	var chaosWG sync.WaitGroup
	for i, ev := range sc.Chaos {
		chaosWG.Add(1)
		go func(i int, ev ChaosEvent) {
			defer chaosWG.Done()
			waitChaosTrigger(ev, lg, chaosDone)
			h.fireChaos(i, ev, start)
		}(i, ev)
	}

	if sc.Job == nil || sc.Requests > 0 {
		switch sc.Mode {
		case "closed":
			lg.closedLoop(sc.Concurrency, planned, deadline, seedOf)
		case "open":
			lg.openLoop(sc.QPS, sc.Burst, planned, deadline, seedOf)
		}
	}
	elapsed := time.Since(start)
	close(chaosDone) // unmet events fire now
	chaosWG.Wait()

	if len(sc.Chaos) > 0 {
		// Chaos scripts kill and restart nodes; every target must be
		// answering again before the "after" snapshot (and before the next
		// scenario inherits the fleet).
		for _, t := range sc.Targets {
			if err := waitHealthy(t, 30*time.Second); err != nil {
				return nil, err
			}
		}
	}
	after, err := fetchMetricsEach(sc.Targets)
	if err != nil {
		return nil, fmt.Errorf("server metrics after the run: %w", err)
	}
	perTarget := make(map[string]map[string]uint64, len(sc.Targets))
	allDeltas := map[string]uint64{}
	for _, t := range sc.Targets {
		d := make(map[string]uint64, len(serverCounters))
		for _, name := range serverCounters {
			d[name] = counterDelta(before[t][name], after[t][name])
			allDeltas[name] += d[name]
		}
		perTarget[t] = d
	}

	row := lg.row(sc, elapsed, allDeltas)
	if jobStatus != nil {
		row.jobState = jobStatus.State
		row.jobTrials = jobStatus.CompletedTrials
	}
	report(h.stdout, row)
	if h.digests != "" {
		if err := writeDigests(h.digests, sc.Name, lg.digests); err != nil {
			return nil, err
		}
	}
	rows := []resultRow{row}
	if len(sc.Targets) > 1 {
		for _, t := range sc.Targets {
			rows = append(rows, targetRow(sc, t, perTarget[t]))
		}
	}
	return rows, nil
}

// runJob executes a scenario's autotuner phase: submit the spec, poll until
// the job is terminal, persist the winner artifacts, return the final
// status. Resubmission of a spec the server already finished is idempotent
// (same digest, same job), so the poll loop exits on the first status.
func (h *harness) runJob(sc Scenario) (*jobs.Status, error) {
	jp := sc.Job
	target := sc.Targets[jp.Target]
	st, err := jobRequest(sc, http.MethodPost, target+"/v1/jobs", bytes.NewReader(jp.Spec))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(h.stdout, "scenario %s: job %s submitted (state=%s, %d/%d trials)\n",
		sc.Name, shortID(st.ID), st.State, st.CompletedTrials, st.PlannedTrials)
	deadline := time.Now().Add(time.Duration(jp.TimeoutMS) * time.Millisecond)
	for st.State == "running" {
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("scenario %s: job %s still running after %dms", sc.Name, shortID(st.ID), jp.TimeoutMS)
		}
		time.Sleep(time.Duration(jp.PollMS) * time.Millisecond)
		if st, err = jobRequest(sc, http.MethodGet, target+"/v1/jobs/"+st.ID, nil); err != nil {
			return nil, err
		}
	}
	if st.State != "done" {
		return nil, fmt.Errorf("scenario %s: job %s ended %s: %s", sc.Name, shortID(st.ID), st.State, st.Error)
	}
	if st.Winner == nil {
		return nil, fmt.Errorf("scenario %s: job %s done without a winner", sc.Name, shortID(st.ID))
	}
	fmt.Fprintf(h.stdout, "scenario %s: job %s done — winner %s score=%.4f (%d trials, digest %s)\n",
		sc.Name, shortID(st.ID), st.Winner.Predictor, st.Winner.Score, st.CompletedTrials, shortID(st.ResultDigest))
	if jp.TableOut != "" {
		if err := os.WriteFile(jp.TableOut, []byte(st.Winner.Table), 0o644); err != nil {
			return nil, err
		}
	}
	if jp.ConfigOut != "" {
		data, err := json.Marshal(st.Winner.Config)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jp.ConfigOut, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// jobRequest performs one /v1/jobs call with the scenario's tenant header
// and decodes the status; any non-200 is an error.
func jobRequest(sc Scenario, method, url string, body io.Reader) (*jobs.Status, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sc.Tenant != "" {
		req.Header.Set(server.TenantHeader, sc.Tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("job request: %w", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("job response: %w", err)
	}
	return &st, nil
}

// shortID abbreviates a job/digest hex ID for log lines.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// uploadTrace runs a scenario's bring-your-own-workload phase: generate the
// trace locally, stream it to the chosen target with the scenario's tenant
// header, and return the content digest the server minted. Any failure is
// the scenario's — it cannot meaningfully run without the upload.
func (h *harness) uploadTrace(sc Scenario) (string, error) {
	up := sc.Upload
	tr, err := sim.TraceFor(up.App, up.Insts, up.Seed)
	if err != nil {
		return "", fmt.Errorf("upload trace generation: %w", err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return "", fmt.Errorf("upload trace encoding: %w", err)
	}
	target := sc.Targets[up.Target]
	req, err := http.NewRequest(http.MethodPost, target+"/v1/traces", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if sc.Tenant != "" {
		req.Header.Set(server.TenantHeader, sc.Tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", fmt.Errorf("trace upload: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("trace upload to %s: %s: %s", target, resp.Status, bytes.TrimSpace(body))
	}
	var ur server.TraceUploadResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		return "", fmt.Errorf("trace upload response: %w", err)
	}
	fmt.Fprintf(h.stdout, "scenario %s: uploaded %s/%d/seed=%d as trace:%s (%d bytes, %d insts, dup=%v)\n",
		sc.Name, up.App, up.Insts, up.Seed, ur.Digest, ur.Bytes, ur.Insts, ur.Dup)
	return ur.Digest, nil
}

// waitChaosTrigger blocks until the event's trigger condition is met or the
// load ends, whichever comes first — a scheduled recovery must still happen
// even if the load finishes early, or the harness leaves dead nodes behind.
func waitChaosTrigger(ev ChaosEvent, lg *loadgen, loadDone <-chan struct{}) {
	if ev.AfterRequests > 0 {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for lg.completed.Load() < ev.AfterRequests {
			select {
			case <-loadDone:
				return
			case <-tick.C:
			}
		}
		return
	}
	select {
	case <-time.After(time.Duration(ev.AtMS) * time.Millisecond):
	case <-loadDone:
	}
}

// fireChaos runs one event's command via sh -c, synchronously within the
// event (so "kill X; sleep 1; restart X" chains work), with its output on
// stderr next to the harness's own log lines.
func (h *harness) fireChaos(i int, ev ChaosEvent, start time.Time) {
	fmt.Fprintf(h.stderr, "phastload: chaos[%d] firing at +%s: %s\n",
		i, time.Since(start).Round(time.Millisecond), ev.Exec)
	cmd := exec.Command("sh", "-c", ev.Exec)
	cmd.Stdout = h.stderr
	cmd.Stderr = h.stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(h.stderr, "phastload: chaos[%d] failed: %v\n", i, err)
	}
}

// counterDelta is after-before for one monotonic counter, tolerating a
// mid-run restart: a counter that went backwards was reset to zero, so the
// post-restart value is the tightest observable lower bound on the true
// delta.
func counterDelta(before, after uint64) uint64 {
	if after < before {
		return after
	}
	return after - before
}

// writeDigests appends "scenario,seed,digest" rows sorted by seed — the
// bit-exactness artifact. Two runs over the same mix (a solo reference node
// and a chaos-ridden fleet, say) must produce identical seed→digest maps.
func writeDigests(path, scenario string, digests map[int64]string) error {
	seeds := make([]int64, 0, len(digests))
	for s := range digests {
		seeds = append(seeds, s)
	}
	slices.Sort(seeds)
	var buf bytes.Buffer
	for _, s := range seeds {
		fmt.Fprintf(&buf, "%s,%d,%s\n", scenario, s, digests[s])
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadgen issues requests and accumulates client-side outcomes.
type loadgen struct {
	targets   []string
	tenant    string       // X-Phast-Tenant header on every request ("" = default)
	rr        atomic.Int64 // round-robin cursor over targets
	completed atomic.Int64 // requests finished (chaos after_requests trigger)
	client    *http.Client
	cfg       sim.Config
	timeoutMS int64
	thinkMS   int64
	failover  bool
	digest    bool // record per-seed result digests

	mu         sync.Mutex
	latencies  []time.Duration
	unique     map[int64]bool   // distinct config seeds actually sent
	digests    map[int64]string // seed → first result digest
	ok         int
	rejected   int // HTTP 429: admission-control backpressure
	failed     int // anything else
	failovers  int // requests rescued by retrying another target
	mismatched int // seeds whose repeated results digested differently
}

// runDigest is the byte-level fingerprint of one result row: sha256 over
// the run object's JSON exactly as the server sent it. Two responses for
// the same seed — from any node, any routing path, before or after chaos —
// must digest identically, or the fleet broke bit-exactness.
func runDigest(body []byte) (string, bool) {
	var rr struct {
		Run json.RawMessage `json:"run"`
	}
	if err := json.Unmarshal(body, &rr); err != nil || len(rr.Run) == 0 {
		return "", false
	}
	sum := sha256.Sum256(rr.Run)
	return hex.EncodeToString(sum[:]), true
}

// attempt posts one request to one target. Returns the HTTP status (0 on
// transport error) and, when digesting, the response body.
func (l *loadgen) attempt(target string, body []byte) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, target+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	if l.tenant != "" {
		req.Header.Set(server.TenantHeader, l.tenant)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	if l.digest && resp.StatusCode == http.StatusOK {
		data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			return 0, nil
		}
		return resp.StatusCode, data
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// failoverWorthy reports whether a failed attempt should be retried on
// another target: transport errors (connection refused/reset — the node
// died) and gateway-ish statuses a load balancer would also retry. A 429 is
// NOT failover-worthy here — admission backpressure is a per-run outcome
// the harness must report, not paper over.
func failoverWorthy(status int) bool {
	switch status {
	case 0, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// next sends one request with the given stream seed and records its
// outcome. Targets are round-robined: any fleet member accepts any config.
// With failover enabled, a transport-failed or gateway-failed request walks
// the remaining targets once before counting as failed; the recorded
// latency covers all attempts (what the caller actually waited).
func (l *loadgen) next(seed int64) {
	cfg := l.cfg
	cfg.Seed = seed
	// A config is strings, ints and bools: marshalling cannot fail.
	body, _ := json.Marshal(server.RunRequest{Config: cfg, TimeoutMS: l.timeoutMS})
	first := int(l.rr.Add(1) - 1)
	start := time.Now()
	status, data := l.attempt(l.targets[first%len(l.targets)], body)
	attempts := 1
	if l.failover {
		for off := 1; off < len(l.targets) && failoverWorthy(status); off++ {
			status, data = l.attempt(l.targets[(first+off)%len(l.targets)], body)
			attempts++
		}
	}
	lat := time.Since(start)
	defer l.completed.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.latencies = append(l.latencies, lat)
	l.unique[seed] = true
	if attempts > 1 && status == http.StatusOK {
		l.failovers++
	}
	switch status {
	case http.StatusOK:
		l.ok++
		if l.digest {
			if d, ok := runDigest(data); ok {
				if prev, seen := l.digests[seed]; seen && prev != d {
					l.mismatched++
				} else if !seen {
					l.digests[seed] = d
				}
			} else {
				l.failed++ // a 200 whose body has no run row is a failure
				l.ok--
			}
		}
	case http.StatusTooManyRequests:
		l.rejected++
	default:
		l.failed++
	}
}

// closedLoop runs c workers, each issuing its next request as soon as the
// previous one completes — throughput adapts to server latency.
func (l *loadgen) closedLoop(c, total int, deadline time.Time, seedOf func() int64) {
	seeds := make(chan int64, c)
	go func() {
		defer close(seeds)
		for i := 0; i < total && time.Now().Before(deadline); i++ {
			seeds <- seedOf()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				if !time.Now().Before(deadline) {
					return
				}
				l.next(seed)
				if l.thinkMS > 0 {
					time.Sleep(time.Duration(l.thinkMS) * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
}

// openLoop fires requests at a fixed rate regardless of completions — the
// latency distribution then includes server-side queueing under overload.
// A burst spec modulates the rate (factor× for the first width of every
// period). In-flight requests are capped at 4096 as an OOM backstop;
// arrivals past the cap count as client-side drops (reported as failed).
func (l *loadgen) openLoop(qps float64, burst *Burst, total int, deadline time.Time, seedOf func() int64) {
	start := time.Now()
	next := start
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < total && time.Now().Before(deadline); i++ {
		rate := qps
		if burst != nil {
			period := time.Duration(burst.PeriodMS) * time.Millisecond
			width := time.Duration(burst.WidthMS) * time.Millisecond
			if time.Since(start)%period < width {
				rate *= burst.Factor
			}
		}
		next = next.Add(time.Duration(float64(time.Second) / rate))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if inflight.Load() >= 4096 {
			l.mu.Lock()
			l.failed++
			l.mu.Unlock()
			continue
		}
		seed := seedOf()
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			l.next(seed)
		}()
	}
	wg.Wait()
}

// fetchMetrics pulls one server's counter snapshot.
func fetchMetrics(url string) (server.MetricsResponse, error) {
	var m server.MetricsResponse
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// fetchMetricsEach snapshots every target's counters separately, keyed by
// target URL — per-target deltas show who did the work; the "all" row sums
// them back into the fleet's aggregate view.
func fetchMetricsEach(targets []string) (map[string]map[string]uint64, error) {
	out := make(map[string]map[string]uint64, len(targets))
	for _, t := range targets {
		m, err := fetchMetrics(t)
		if err != nil {
			return nil, err
		}
		out[t] = m.Counters
	}
	return out, nil
}

// serverCounters are the counter deltas reported per scenario, in table and
// CSV column order.
var serverCounters = []string{
	server.CounterRequests, server.CounterAccepted, server.CounterQueued,
	server.CounterRejected, server.CounterCoalesced,
	server.CounterProxied, server.CounterProxyErrors, server.CounterPeerRuns,
	server.CounterRetries, server.CounterBreakerOpened, server.CounterBreakerShortCircuit,
	server.CounterHedgeFired, server.CounterHedgeWins,
	cluster.CounterProbeFail, cluster.CounterTransitionsDown, cluster.CounterTransitionsUp,
	runcache.CounterPeerHits, runcache.CounterPeerMisses, runcache.CounterPeerErrors,
	server.CounterPeerCacheServed,
	server.CounterTraceUploads, server.CounterTraceFetched,
	server.CounterPeerTraceServed, server.CounterTraceReplicated,
	runcache.CounterMemHits, runcache.CounterDiskHits, runcache.CounterMisses,
	runcache.CounterRunsSimulated, runcache.CounterDiskEvicted,
}

// report renders one scenario's client-side outcome and the server-side
// counter deltas from its "all" row.
func report(w io.Writer, r resultRow) {
	t := stats.NewTable(fmt.Sprintf("%s — client side", r.scenario), "metric", "value")
	t.AddRowf("requests", r.requests)
	t.AddRowf("unique configs", r.unique)
	t.AddRowf("ok", r.ok)
	t.AddRowf("rejected (429)", r.rejected)
	t.AddRowf("failed", r.failed)
	t.AddRowf("failovers", r.failovers)
	t.AddRowf("digest mismatches", r.mismatched)
	t.AddRow("elapsed", r.elapsed.Round(time.Millisecond).String())
	t.AddRow("achieved rps", fmt.Sprintf("%.1f", r.rps))
	for i, name := range []string{"p50", "p90", "p99", "max"} {
		t.AddRow("latency "+name, r.lat[i].Round(time.Microsecond).String())
	}
	fmt.Fprint(w, t)

	st := stats.NewTable(fmt.Sprintf("%s — server side (delta over the run, summed across %d target(s))",
		r.scenario, r.targets), "counter", "delta")
	for _, cname := range serverCounters {
		st.AddRowf(cname, r.deltas[cname])
	}
	fmt.Fprint(w, st)
}

// resultRow is one scenario's machine-readable outcome: the CSV schema of
// the harness. Column order is csvHeader's. The target column is "all" for
// the fleet-aggregate row; per-member rows carry the member URL and only
// server-side deltas (the client observes the fleet as a whole, so their
// client-side fields are zero).
type resultRow struct {
	scenario   string
	target     string
	targets    int
	mode       string
	tenant     string
	requests   int
	unique     int
	ok         int
	rejected   int
	failed     int
	mismatched int
	failovers  int
	elapsed    time.Duration
	rps        float64
	lat        [4]time.Duration // p50, p90, p99, max
	jobState   string           // terminal autotuner state ("" = no job phase)
	jobTrials  int
	deltas     map[string]uint64
}

// row summarises the load once it has ended (no request is still
// recording): the latencies are sorted here, once, for the percentiles.
func (l *loadgen) row(sc Scenario, elapsed time.Duration, deltas map[string]uint64) resultRow {
	slices.Sort(l.latencies)
	n := len(l.latencies)
	r := resultRow{
		scenario:   sc.Name,
		target:     "all",
		targets:    len(sc.Targets),
		mode:       sc.Mode,
		tenant:     sc.Tenant,
		requests:   n,
		unique:     len(l.unique),
		ok:         l.ok,
		rejected:   l.rejected,
		failed:     l.failed,
		mismatched: l.mismatched,
		failovers:  l.failovers,
		elapsed:    elapsed,
		rps:        float64(n) / elapsed.Seconds(),
		deltas:     deltas,
	}
	if n > 0 {
		for i, q := range []float64{0.50, 0.90, 0.99, 1.0} {
			r.lat[i] = l.latencies[int(q*float64(n-1))]
		}
	}
	return r
}

// targetRow is one member's share of the scenario's counter deltas.
func targetRow(sc Scenario, target string, deltas map[string]uint64) resultRow {
	return resultRow{
		scenario: sc.Name,
		target:   target,
		targets:  len(sc.Targets),
		mode:     sc.Mode,
		tenant:   sc.Tenant,
		deltas:   deltas,
	}
}

func csvHeader() []string {
	h := []string{
		"scenario", "target", "targets", "mode", "tenant", "requests", "unique", "ok", "rejected",
		"failed", "mismatched", "failovers", "elapsed_s", "rps", "p50_ms", "p90_ms", "p99_ms", "max_ms",
		"job_state", "job_trials",
	}
	for _, name := range serverCounters {
		h = append(h, strings.NewReplacer(".", "_").Replace(name))
	}
	return h
}

// writeCSV appends rows to path, writing the header only when the file is
// new or empty — successive harness invocations build one results table.
func writeCSV(path string, rows []resultRow) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if st.Size() == 0 {
		if err := w.Write(csvHeader()); err != nil {
			return err
		}
	}
	for _, r := range rows {
		rec := []string{
			r.scenario,
			r.target,
			fmt.Sprint(r.targets),
			r.mode,
			r.tenant,
			fmt.Sprint(r.requests),
			fmt.Sprint(r.unique),
			fmt.Sprint(r.ok),
			fmt.Sprint(r.rejected),
			fmt.Sprint(r.failed),
			fmt.Sprint(r.mismatched),
			fmt.Sprint(r.failovers),
			fmt.Sprintf("%.3f", r.elapsed.Seconds()),
			fmt.Sprintf("%.1f", r.rps),
			ms(r.lat[0]),
			ms(r.lat[1]),
			ms(r.lat[2]),
			ms(r.lat[3]),
			r.jobState,
			fmt.Sprint(r.jobTrials),
		}
		for _, name := range serverCounters {
			rec = append(rec, fmt.Sprint(r.deltas[name]))
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// ms renders a latency in milliseconds for the CSV.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}
