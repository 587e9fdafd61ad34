// Retry policy for the fleet's peer hops. Every peer interaction is
// idempotent by construction — proxied runs coalesce on the owner's
// single-flight map and cache fetches are GETs — so retrying is always
// safe; what this file adds is the discipline around it: backoff with
// deterministic jitter (a pure hash of key and attempt, so chaos runs
// replay identically) that is *budget-aware*: the remaining request
// deadline is re-checked before every sleep and every attempt, and an
// exhausted budget surfaces as a typed timeout (HTTP 504), never as a
// generic 500 or a silent nil result. A peer that keeps failing is the
// failure detector's business (cluster.Prober, fed by every hop): once it
// is Down the live ring stops routing to it.
package server

import (
	"context"
	"errors"
	"hash/fnv"
	"time"
)

// CounterRetries counts re-attempts of peer operations beyond the first,
// published next to the proxy/peer set in /metrics.
const CounterRetries = "server.retry.attempts"

// errBudget marks a peer operation abandoned because the request's
// remaining deadline budget ran out mid-retry. Mapped to a typed
// sim.ErrTimeout (HTTP 504) by the caller — never a generic 500, and never
// a local-execution fallback (there is no budget left to execute with).
var errBudget = errors.New("server: peer retry budget exhausted")

// retryPolicy is the backoff schedule for peer hops.
type retryPolicy struct {
	attempts int           // total attempts (1 = no retry)
	base     time.Duration // first backoff; doubles per retry
	max      time.Duration // backoff cap
}

func (rp retryPolicy) norm() retryPolicy {
	if rp.attempts <= 0 {
		rp.attempts = 3
	}
	if rp.base <= 0 {
		rp.base = 50 * time.Millisecond
	}
	if rp.max <= 0 {
		rp.max = time.Second
	}
	return rp
}

// backoff returns the sleep before attempt (1-based retry index):
// exponential growth with deterministic jitter in [½d, d), derived from
// (key, attempt) so a replayed chaos run backs off identically.
func (rp retryPolicy) backoff(key string, attempt int) time.Duration {
	d := rp.base << (attempt - 1)
	if d > rp.max || d <= 0 {
		d = rp.max
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{byte(attempt)})
	frac := float64(h.Sum64()>>11) / float64(uint64(1)<<53) // [0,1)
	return d/2 + time.Duration(frac*float64(d/2))
}

// sleepBudget sleeps d unless the context ends first or the remaining
// deadline budget cannot cover the sleep plus one more meaningful attempt.
// Returns nil when the retry may proceed.
func sleepBudget(ctx context.Context, d time.Duration) error {
	if dl, ok := ctx.Deadline(); ok {
		// Subtract the elapsed time already spent: what is left must cover
		// the backoff and leave room for the attempt itself.
		if time.Until(dl) <= d {
			return errBudget
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return errBudget
	}
}
