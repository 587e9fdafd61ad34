package runcache

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// BenchmarkRunCacheGet times a hit in each local tier of Cache.GetOrRun,
// key derivation included, for the row of a short real simulation: the
// memory tier (a map lookup under the cache's lock) and the disk tier (the
// entry's file read and JSON decode, then promotion to memory). A disk
// iteration looks up through a new Cache over the same Store, so it cannot
// hit memory; building that Cache is not timed. phastbench reports the disk
// tier as runcache.disk_get_us, but only from its child processes.
func BenchmarkRunCacheGet(b *testing.B) {
	cfg := sim.Config{App: "511.povray", Predictor: "none", Instructions: 5000}
	run, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	store := NewStore(b.TempDir())
	if err := store.Put(Key(cfg), cfg, run); err != nil {
		b.Fatal(err)
	}
	miss := func(context.Context) (*stats.Run, error) {
		return nil, errors.New("the lookup missed every tier")
	}
	get := func(b *testing.B, c *Cache) {
		if _, err := c.GetOrRun(context.Background(), cfg, miss); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("memory", func(b *testing.B) {
		c := New(nil, nil)
		c.memPut(Key(cfg), run)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, c)
		}
	})
	b.Run("disk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := New(store, nil)
			b.StartTimer()
			get(b, c)
		}
	})
}
