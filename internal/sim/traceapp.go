package sim

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/contentaddr"
	"repro/internal/memo"
	"repro/internal/trace"
)

// TraceAppPrefix marks a Config.App that names an uploaded trace by content
// address instead of a synthetic workload: "trace:<64-hex-digest>". The
// digest is the trace store's canonical-encoding address
// (internal/tracestore), so the app string fully determines the stream —
// which is exactly what the run cache's config hash needs; no new Config
// field, no change to existing cache keys.
const TraceAppPrefix = "trace:"

// ErrTraceUnavailable reports a trace-app run whose stream has not been
// provided to this process (ProvideTrace). Experiment runners resolve the
// digest against the trace store (and the fleet's peer tier) before
// simulating; reaching the simulator without a provided stream means that
// resolution failed or was skipped.
var ErrTraceUnavailable = errors.New("sim: trace not provided to this process")

// TraceDigest splits a trace app into its digest. It returns ok=false for
// ordinary workload names; a malformed digest after the prefix returns
// ok=true with an error (the app is unambiguously trying to be a trace run
// and must not fall through to workload lookup).
func TraceDigest(app string) (digest string, ok bool, err error) {
	digest, found := strings.CutPrefix(app, TraceAppPrefix)
	if !found {
		return "", false, nil
	}
	if !contentaddr.Valid(digest) {
		return "", true, fmt.Errorf("sim: malformed trace app %q: digest must be 64 lowercase hex digits", app)
	}
	return digest, true, nil
}

// provided registers uploaded streams by digest for this process. Content
// addressing makes the registry safe to share across every consumer in the
// process (including multi-node in-process fleet tests): two providers of
// one digest are by construction providing the same immutable stream.
// Bounded like the trace intern pool.
var provided = memo.New[string, *trace.Trace](32)

// ProvideTrace registers the decoded stream for a digest, making
// Config.App "trace:<digest>" runnable. The caller vouches that tr is the
// decode of the canonical bytes hashing to digest; re-providing a digest is
// a cheap no-op.
func ProvideTrace(digest string, tr *trace.Trace) {
	// The build cannot fail, so there is no error to handle.
	_, _, _ = provided.Get(digest, func() (*trace.Trace, error) { return tr, nil })
}

// TraceProvided reports whether a digest's stream is already registered.
func TraceProvided(digest string) bool { return provided.Has(digest) }

// traceForDigest resolves a trace app's stream: the registered full stream,
// truncated to n micro-ops when the run asks for fewer (the same
// "Instructions = stream length" contract synthetic workloads have; a run
// asking for more than the trace holds gets the whole trace). Seed has no
// effect on an uploaded stream. Truncated views are interned in the
// ordinary trace pool so they share prefix structures across runs.
func traceForDigest(app, digest string, n int) (*trace.Trace, error) {
	full, ok := provided.Peek(digest)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTraceUnavailable, digest)
	}
	if n <= 0 || n >= full.Len() {
		return full, nil
	}
	return intern(streamKey{app: app, n: n}, func() (*trace.Trace, error) {
		return &trace.Trace{Name: full.Name, Insts: full.Insts[:n]}, nil
	})
}
