package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/contentaddr"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// uploadableTrace builds a distinct stream (per seed) and returns its
// decoded form plus canonical digest, as the trace store would hold it.
func uploadableTrace(t *testing.T, seed int64) (*trace.Trace, string) {
	t.Helper()
	tr, err := sim.TraceFor(workload.Names()[0], 3_000, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return decoded, contentaddr.Sum(buf.Bytes())
}

func TestRunnerTraceResolver(t *testing.T) {
	decoded, digest := uploadableTrace(t, 77)
	var calls atomic.Int32
	r := NewRunner(Options{Workers: 2, TraceResolver: func(ctx context.Context, d string) (*trace.Trace, error) {
		calls.Add(1)
		if d != digest {
			return nil, fmt.Errorf("unexpected digest %s", d)
		}
		return decoded, nil
	}})
	defer r.Close()

	cfg := sim.Config{App: sim.TraceAppPrefix + digest, Predictor: "none", Instructions: 3_000}
	run, err := runOne(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run == nil || calls.Load() != 1 {
		t.Fatalf("first run: run=%v resolver calls=%d, want 1", run, calls.Load())
	}
	// Second identical run hits the cache (or the provided stream); the
	// resolver is never consulted again.
	if _, err := runOne(r, cfg); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("resolver called %d times, want 1", calls.Load())
	}
}

func TestRunnerTraceResolverFailureIsTyped(t *testing.T) {
	wantErr := errors.New("trace not found anywhere in the fleet")
	r := NewRunner(Options{Workers: 2, TraceResolver: func(ctx context.Context, d string) (*trace.Trace, error) {
		return nil, wantErr
	}})
	defer r.Close()

	// A digest no test provides: resolver fails, the run reports a typed
	// config error wrapping the resolver's.
	app := sim.TraceAppPrefix + contentaddr.Sum([]byte("missing everywhere"))
	_, err := runOne(r, sim.Config{App: app, Predictor: "none", Instructions: 1_000})
	var se *sim.SimError
	if !errors.As(err, &se) || se.Kind != sim.ErrConfig || !errors.Is(err, wantErr) {
		t.Fatalf("error %v, want ErrConfig wrapping the resolver failure", err)
	}
}
