package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// get is Get for tests whose builds return k's length and cannot fail.
func get(c *Cache[string, int], k string) (int, bool) {
	v, hit, err := c.Get(k, func() (int, error) { return len(k), nil })
	if err != nil {
		panic(err)
	}
	return v, hit
}

// keys returns which of ks the cache holds.
func keys(c *Cache[string, int], ks ...string) []string {
	var held []string
	for _, k := range ks {
		if c.Has(k) {
			held = append(held, k)
		}
	}
	return held
}

func TestCache(t *testing.T) {
	type point struct {
		dir  string
		from int
	}
	errBuild := errors.New("build failed")
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"fifo at capacity", func(t *testing.T) {
			c := New[string, int](2)
			get(c, "a")
			get(c, "bb")
			if _, hit := get(c, "a"); !hit {
				t.Fatal("second Get of a was not a hit")
			}
			get(c, "ccc") // evicts a, the oldest insertion, although a was hit last
			if got := fmt.Sprint(keys(c, "a", "bb", "ccc")); got != "[bb ccc]" {
				t.Fatalf("held %s after a third key, want [bb ccc]", got)
			}
			if v, hit := get(c, "a"); hit || v != 1 {
				t.Fatalf("Get of evicted a = %d, hit %v; want a rebuild", v, hit)
			}
			if got := fmt.Sprint(keys(c, "a", "bb", "ccc")); got != "[a ccc]" {
				t.Fatalf("held %s after re-adding a, want [a ccc]", got)
			}
		}},
		{"cap 0 keeps every key", func(t *testing.T) {
			c := New[string, int](0)
			var ks []string
			for i := range 1000 {
				k := fmt.Sprint(i)
				ks = append(ks, k)
				get(c, k)
			}
			if held := keys(c, ks...); len(held) != len(ks) {
				t.Fatalf("held %d of %d keys", len(held), len(ks))
			}
		}},
		{"zero value is usable", func(t *testing.T) {
			var c Cache[string, int]
			if v, hit := get(&c, "abc"); hit || v != 3 {
				t.Fatalf("first Get = %d, hit %v", v, hit)
			}
			if v, hit := get(&c, "abc"); !hit || v != 3 {
				t.Fatalf("second Get = %d, hit %v", v, hit)
			}
			if v, ok := c.Peek("abc"); !ok || v != 3 {
				t.Fatalf("Peek = %d, %v", v, ok)
			}
		}},
		{"joiner is a hit", func(t *testing.T) {
			c := New[string, int](4)
			started, release := make(chan struct{}), make(chan struct{})
			first := make(chan int)
			go func() {
				v, _, _ := c.Get("k", func() (int, error) {
					close(started)
					<-release
					return 7, nil
				})
				first <- v
			}()
			<-started
			if c.Has("k") {
				t.Fatal("Has reports a key that is still building")
			}
			joined := make(chan struct{})
			go func() {
				defer close(joined)
				v, hit, err := c.Get("k", func() (int, error) { return 0, errors.New("joiner built") })
				if v != 7 || !hit || err != nil {
					t.Errorf("joiner got %d, hit %v, err %v; want 7, a hit", v, hit, err)
				}
			}()
			for range 100 {
				runtime.Gosched() // let the joiner reach the in-flight entry
			}
			close(release)
			if v := <-first; v != 7 {
				t.Fatalf("builder got %d", v)
			}
			<-joined
		}},
		{"failed build is retried", func(t *testing.T) {
			c := New[string, int](4)
			_, hit, err := c.Get("k", func() (int, error) { return 0, errBuild })
			if hit || !errors.Is(err, errBuild) {
				t.Fatalf("failing Get: hit %v, err %v", hit, err)
			}
			if c.Has("k") {
				t.Fatal("a failed build left an entry")
			}
			v, hit, err := c.Get("k", func() (int, error) { return 5, nil })
			if v != 5 || hit || err != nil {
				t.Fatalf("retry = %d, hit %v, err %v; want a fresh build", v, hit, err)
			}
			get(c, "a")
			get(c, "b")
			get(c, "c") // a slot left by the failed build would evict k here
			if got := fmt.Sprint(keys(c, "k", "a", "b", "c")); got != "[k a b c]" {
				t.Fatalf("held %s, want [k a b c]", got)
			}
			get(c, "d")
			if got := fmt.Sprint(keys(c, "k", "a", "b", "c", "d")); got != "[a b c d]" {
				t.Fatalf("held %s, want [a b c d]", got)
			}
		}},
		{"panicking build leaves no entry", func(t *testing.T) {
			c := New[string, int](4)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("the build's panic did not reach its caller")
					}
				}()
				c.Get("k", func() (int, error) { panic("boom") })
			}()
			if v, hit := get(c, "k"); hit || v != 1 {
				t.Fatalf("Get after a panicked build = %d, hit %v; want a rebuild", v, hit)
			}
		}},
		{"hit allocates nothing", func(t *testing.T) {
			s := New[string, int](4)
			p := New[point, int](4)
			build := func() (int, error) { return 1, nil }
			s.Get("tagescl", build)
			p.Get(point{"tagescl", 1}, build)
			if n := testing.AllocsPerRun(100, func() { s.Get("tagescl", build) }); n != 0 {
				t.Errorf("string-key hit: %v allocs", n)
			}
			if n := testing.AllocsPerRun(100, func() { p.Get(point{"tagescl", 1}, build) }); n != 0 {
				t.Errorf("struct-key hit: %v allocs", n)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestCacheConcurrent has many goroutines Get overlapping keys of a small
// cache, so entries are evicted while their builds run and failed builds
// race retries. Every caller must get its key's value or its build's error,
// and nothing may hang.
func TestCacheConcurrent(t *testing.T) {
	const workers, rounds, nkeys = 16, 300, 12
	c := New[int, int](4)
	errOdd := errors.New("odd build")
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				k := (w + r) % nkeys
				v, _, err := c.Get(k, func() (int, error) {
					runtime.Gosched() // widen the build so evictions land mid-build
					if k%3 == 0 && r%2 == 1 {
						return 0, errOdd
					}
					return k * k, nil
				})
				switch {
				case err != nil && !errors.Is(err, errOdd):
					t.Errorf("key %d: unexpected error %v", k, err)
				case err == nil && v != k*k:
					t.Errorf("key %d: got %d, want %d", k, v, k*k)
				}
				if v, ok := c.Peek(k); ok && v != k*k {
					t.Errorf("key %d: Peek got %d", k, v)
				}
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) > 4 || len(c.order) != len(c.entries) {
		t.Fatalf("%d entries, %d ordered keys; want at most 4, equal", len(c.entries), len(c.order))
	}
	for _, k := range c.order {
		if c.entries[k] == nil {
			t.Fatalf("ordered key %d has no entry", k)
		}
	}
}
