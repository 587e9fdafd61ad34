package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/oracle"
	"repro/internal/parsim"
	"repro/internal/pipeline"
)

// ErrorKind classifies a failed simulation. Kinds are stable strings —
// metric names ("sim.errors.<kind>") and error-table rows are built from
// them.
type ErrorKind string

const (
	// ErrPanic is a panic recovered from the simulator (predictor bug,
	// pipeline invariant violation, injected fault). Stack holds the trace.
	ErrPanic ErrorKind = "panic"
	// ErrDeadlock is a wedged pipeline caught by the zero-retirement
	// watchdog or the absolute cycle ceiling (see pipeline.DeadlockError).
	ErrDeadlock ErrorKind = "deadlock"
	// ErrTimeout is a run that outlived its wall-clock deadline.
	ErrTimeout ErrorKind = "timeout"
	// ErrCancelled is a run aborted by context cancellation (SIGINT,
	// fail-fast batch shutdown).
	ErrCancelled ErrorKind = "cancelled"
	// ErrConfig is a run that never started: unknown app, machine or
	// predictor spec, invalid machine parameters.
	ErrConfig ErrorKind = "config"
	// ErrVerify is a run whose retirement stream diverged from the in-order
	// architectural oracle (Config.Verify; see oracle.DivergenceError).
	ErrVerify ErrorKind = "verify"
	// ErrInternal is any other simulator failure.
	ErrInternal ErrorKind = "internal"
)

// CounterErrorPrefix prefixes the per-kind error counters an experiment
// runner publishes ("sim.errors.panic", "sim.errors.deadlock", ...).
const CounterErrorPrefix = "sim.errors."

// SimError is the typed failure of one simulation: which config failed, how
// (Kind), where (Cycle, when known), and the recovered panic stack when the
// failure was a panic. A SimError poisons one result row, never the batch.
type SimError struct {
	Kind   ErrorKind
	Config Config
	// Cycle locates deadlocks and panics inside the run (0 = unknown).
	Cycle uint64
	// Panic is the recovered value and Stack the goroutine stack, set only
	// for Kind == ErrPanic.
	Panic any
	Stack []byte
	// Err is the underlying error (nil for recovered panics).
	Err error
}

func (e *SimError) Error() string {
	c := e.Config
	head := fmt.Sprintf("sim %s/%s/%s [%s]", c.App, c.Machine, c.Predictor, e.Kind)
	switch {
	case e.Kind == ErrPanic:
		return fmt.Sprintf("%s: panic: %v", head, e.Panic)
	case e.Err != nil:
		return fmt.Sprintf("%s: %v", head, e.Err)
	default:
		return head
	}
}

func (e *SimError) Unwrap() error { return e.Err }

// newPanicError converts a recovered panic value into a SimError.
func newPanicError(cfg Config, v any, stack []byte) *SimError {
	return &SimError{Kind: ErrPanic, Config: cfg, Panic: v, Stack: stack}
}

// wrapError classifies err into a SimError for cfg. Already-typed errors
// pass through; pipeline deadlocks, context aborts and setup failures get
// their kinds; anything else is ErrInternal.
func wrapError(cfg Config, err error) *SimError {
	var se *SimError
	if errors.As(err, &se) {
		return se
	}
	var de *pipeline.DeadlockError
	if errors.As(err, &de) {
		return &SimError{Kind: ErrDeadlock, Config: cfg, Cycle: de.Cycle, Err: err}
	}
	var dv *oracle.DivergenceError
	if errors.As(err, &dv) {
		return &SimError{Kind: ErrVerify, Config: cfg, Cycle: dv.Cycle, Err: err}
	}
	var st *parsim.StitchError
	if errors.As(err, &st) {
		// A failed interval-stitch gate is an architectural-correctness
		// failure, like an oracle divergence.
		return &SimError{Kind: ErrVerify, Config: cfg, Err: err}
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &SimError{Kind: ErrTimeout, Config: cfg, Err: err}
	case errors.Is(err, context.Canceled):
		return &SimError{Kind: ErrCancelled, Config: cfg, Err: err}
	default:
		return &SimError{Kind: ErrInternal, Config: cfg, Err: err}
	}
}

// specError is a rejected predictor spec (see NewPredictor).
type specError struct {
	spec, msg string
}

func (e *specError) Error() string { return fmt.Sprintf("sim: predictor spec %q: %s", e.spec, e.msg) }

// KindOf classifies any error an experiment runner sees into an ErrorKind
// for metrics: SimErrors report their own kind, rejected predictor specs
// are ErrConfig, bare context errors map to timeout/cancelled, everything
// else is ErrInternal.
func KindOf(err error) ErrorKind {
	var se *SimError
	if errors.As(err, &se) {
		return se.Kind
	}
	var spe *specError
	if errors.As(err, &spe) {
		return ErrConfig
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrTimeout
	case errors.Is(err, context.Canceled):
		return ErrCancelled
	default:
		return ErrInternal
	}
}
