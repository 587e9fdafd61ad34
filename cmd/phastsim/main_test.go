package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracestore"
)

// phastsim runs the command in-process and returns its stdout and stderr.
func phastsim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	if err := run(args, &out, &errw); err != nil {
		t.Fatalf("phastsim %s: %v\n%s", strings.Join(args, " "), err, errw.String())
	}
	return out.String(), errw.String()
}

// savedTrace writes 505.mcf's first 20k micro-ops with -save-trace and
// returns the file's path.
func savedTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mcf.mdpt")
	phastsim(t, "-app", "505.mcf", "-n", "20000", "-save-trace", path)
	return path
}

// A replayed stream is the generated one: -vs-ideal measures the ideal
// predictor on the file's stream, not on the default app.
func TestLoadTraceMatchesApp(t *testing.T) {
	path := savedTrace(t)
	replayed, _ := phastsim(t, "-load-trace", path, "-vs-ideal")
	generated, _ := phastsim(t, "-app", "505.mcf", "-n", "20000", "-vs-ideal")
	if replayed != generated {
		t.Errorf("-load-trace -vs-ideal printed\n%s\nwant the -app run's\n%s", replayed, generated)
	}
}

// SimPoint intervals run with the command's flags, not a default core.
func TestSimpointsTakeRunFlags(t *testing.T) {
	args := []string{"-app", "502.gcc_1", "-n", "100000", "-simpoints", "2", "-interval", "20000"}
	plain, _ := phastsim(t, args...)
	tuned, _ := phastsim(t, append(args, "-bp", "bimodal", "-no-fwd-filter")...)
	if plain == tuned {
		t.Errorf("-bp bimodal -no-fwd-filter left the SimPoint table unchanged:\n%s", plain)
	}
}

// A replayed stream's run is cached on disk: the second replay reads it
// back and simulates nothing.
func TestLoadTraceUsesRunCache(t *testing.T) {
	path := savedTrace(t)
	dir := t.TempDir()
	first, _ := phastsim(t, "-load-trace", path, "-cache", dir)
	second, metrics := phastsim(t, "-load-trace", path, "-cache", dir, "-metrics")
	if second != first {
		t.Errorf("cached replay printed\n%s\nwant\n%s", second, first)
	}
	if !regexp.MustCompile(`(?m)^cache\.hits\.disk +1 *$`).MatchString(metrics) {
		t.Errorf("metrics lack cache.hits.disk 1:\n%s", metrics)
	}
	if regexp.MustCompile(`(?m)^(runs\.simulated|cache\.misses) +[1-9]`).MatchString(metrics) {
		t.Errorf("the cached replay simulated:\n%s", metrics)
	}
}

// A -save-trace file and an upload of its bytes share one content address,
// so their runs share run-cache keys.
func TestSavedTraceDigestMatchesUpload(t *testing.T) {
	raw, err := os.ReadFile(savedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, digest, err := tracestore.Canonical(tr)
	if err != nil {
		t.Fatal(err)
	}
	put, err := tracestore.New(t.TempDir(), tracestore.Options{}).Put("alice", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if put.Digest != digest {
		t.Errorf("upload stored under %s, the saved stream's address is %s", put.Digest, digest)
	}
}
