package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// BenchmarkSchedulerSubmit times the shared worker pool's queueing layer:
// submitCtx of an empty job to a two-worker scheduler until a worker takes
// it, plus the job's run, per job. "serial" submits from one goroutine on
// one tenant; "tenants" submits from four goroutines, each its own tenant,
// so the workers choose among queued jobs by the weighted-fair policy. A
// real job simulates for milliseconds; this prices only the handoff.
func BenchmarkSchedulerSubmit(b *testing.B) {
	for _, tc := range []struct {
		name       string
		submitters int
	}{{"serial", 1}, {"tenants", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			s := newScheduler(2)
			defer s.close()
			var done, subs sync.WaitGroup
			done.Add(b.N)
			job := func() { done.Done() }
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < tc.submitters; g++ {
				subs.Add(1)
				go func(tenant string) {
					defer subs.Done()
					for i := g; i < b.N; i += tc.submitters {
						if err := s.submitCtx(context.Background(), tenant, job); err != nil {
							b.Error(err)
							done.Done()
						}
					}
				}(fmt.Sprintf("t%d", g))
			}
			subs.Wait()
			done.Wait()
		})
	}
}
