package main

import (
	"bytes"
	"strings"
	"testing"
)

// small keeps each in-process run to a couple of cheap apps.
var small = []string{"-apps", "511.povray,519.lbm", "-n", "5000", "-workers", "1", "-faults", ""}

// paperfigs runs the command in-process and returns its stdout.
func paperfigs(t *testing.T, args ...string) string {
	t.Helper()
	var out, errw bytes.Buffer
	if err := run(args, &out, &errw); err != nil {
		t.Fatalf("paperfigs %s: %v\n%s", strings.Join(args, " "), err, errw.String())
	}
	return out.String()
}

// A comma-separated -fig runs each experiment in order, exactly as
// separate invocations print them.
func TestFigListConcatenatesFigures(t *testing.T) {
	both := paperfigs(t, append([]string{"-fig", "fig6,fig11"}, small...)...)
	fig6 := paperfigs(t, append([]string{"-fig", "fig6"}, small...)...)
	fig11 := paperfigs(t, append([]string{"-fig", "fig11"}, small...)...)
	if both != fig6+fig11 {
		t.Errorf("-fig fig6,fig11 printed\n%s\nwant -fig fig6 then -fig fig11:\n%s%s", both, fig6, fig11)
	}
	if !strings.HasPrefix(both, "== fig6: ") || !strings.Contains(both, "== fig11: ") {
		t.Errorf("missing experiment headers:\n%s", both)
	}
}

// Under -keep-going, a -config run with one failed app marks only that
// app's row failed; the others keep their fault-free rows.
func TestConfigKeepGoingKeepsSucceededRows(t *testing.T) {
	args := []string{"-config", `{"Predictor":"phast"}`,
		"-apps", "511.povray,519.lbm,505.mcf", "-n", "5000", "-keep-going"}
	faulted := paperfigs(t, append(args, "-faults", "panic=0.4,seed=1")...)
	clean := paperfigs(t, append(args, "-faults", "")...)

	// Rows by app, as their cells: a "failed" cell widens a column.
	rows := func(table string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(table, "\n") {
			if f := strings.Fields(line); len(f) > 1 {
				m[f[0]] = strings.Join(f[1:], " ")
			}
		}
		return m
	}
	got, want := rows(faulted), rows(clean)
	if got["519.lbm"] != "failed" {
		t.Errorf("519.lbm row %q, want it marked failed (the plan panics its run)", got["519.lbm"])
	}
	for _, app := range []string{"511.povray", "505.mcf"} {
		if got[app] != want[app] || strings.Contains(got[app], "failed") {
			t.Errorf("%s row %q, want the fault-free row %q", app, got[app], want[app])
		}
	}
}

// An unknown name anywhere in -fig is an error before anything runs.
func TestUnknownFigIsError(t *testing.T) {
	var out, errw bytes.Buffer
	err := run(append([]string{"-fig", "fig6,fig99"}, small...), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("want an unknown-experiment error naming fig99, got %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("an invalid -fig still printed:\n%s", out.String())
	}
}
