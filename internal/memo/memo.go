// Package memo holds Cache, the bounded single-flight memo behind every
// structure the simulator interns per trace: sim's generated streams and
// their truncated views, sim's provided (uploaded) streams, tracestore's
// decoded traces, and each trace's branch outcomes.
//
// A Cache builds each key's value once, however many goroutines ask for it
// at the same time, and keeps at most its capacity of keys. Its contract:
//
//   - Eviction is FIFO by insertion order; a hit does not refresh a key. An
//     entry evicted mid-build still finishes for the callers waiting on it.
//   - A caller that joins an in-flight build waits for it and counts as a
//     hit.
//   - A failed build leaves no entry: its caller and joiners get its error,
//     and the next call builds again.
//   - A hit takes the lock once and allocates nothing.
package memo

import (
	"errors"
	"slices"
	"sync"
)

// Cache is a bounded single-flight memo from K to V. The zero value is an
// empty, unbounded Cache ready to use; New bounds one. A Cache must not be
// copied after first use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int // 0 = unbounded
	entries  map[K]*entry[V]
	order    []K // keys in insertion order; kept only when bounded
}

type entry[V any] struct {
	done chan struct{} // closed once the build has returned or panicked
	v    V
	err  error
}

// errPanicked is what the joiners of a panicking build get; the panic
// itself continues on the building goroutine.
var errPanicked = errors.New("memo: build panicked")

// New returns an empty Cache holding at most capacity keys; 0 means
// unbounded.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity}
}

// Get returns k's value, calling build on the calling goroutine when k has
// no entry. hit reports that the value came from an entry that was already
// present, built or still building. build runs without the lock held.
func (c *Cache[K, V]) Get(k K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.mu.Unlock()
		<-e.done
		return e.v, true, e.err
	}
	e := &entry[V]{done: make(chan struct{}), err: errPanicked}
	c.insertLocked(k, e)
	c.mu.Unlock()
	defer c.finish(k, e)
	e.v, e.err = build()
	return e.v, false, e.err
}

// insertLocked adds k's entry, first evicting the oldest key at capacity.
func (c *Cache[K, V]) insertLocked(k K, e *entry[V]) {
	if c.entries == nil {
		c.entries = map[K]*entry[V]{}
	}
	if c.capacity > 0 {
		if len(c.order) == c.capacity {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, k)
	}
	c.entries[k] = e
}

// finish publishes a returned (or panicking) build to its joiners, dropping
// the entry first if the build failed so that the next call retries.
func (c *Cache[K, V]) finish(k K, e *entry[V]) {
	if e.err != nil {
		c.mu.Lock()
		if c.entries[k] == e { // not already evicted
			delete(c.entries, k)
			if i := slices.Index(c.order, k); i >= 0 {
				c.order = slices.Delete(c.order, i, i+1)
			}
		}
		c.mu.Unlock()
	}
	close(e.done)
}

// Peek returns k's value if its build has finished. It neither builds nor
// waits: a key that is absent or still building reports ok = false.
func (c *Cache[K, V]) Peek(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		return v, false
	}
	select {
	case <-e.done: // finish drops a failed entry before closing done
		return e.v, true
	default:
		return v, false
	}
}

// Has reports whether k holds a finished value (see Peek).
func (c *Cache[K, V]) Has(k K) bool {
	_, ok := c.Peek(k)
	return ok
}
