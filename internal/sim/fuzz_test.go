package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/workload"
)

// FuzzSimConfig drives the whole facade with arbitrary configs: any input
// must either simulate to completion or fail with a typed *SimError — never
// panic, never return an untyped error. Unknown app/machine/predictor
// strings exercise the config-rejection paths; recognisable ones fall
// through to real (bounded, optionally oracle-verified) simulations.
func FuzzSimConfig(f *testing.F) {
	f.Add("511.povray", "alderlake", "phast", uint64(2000), int64(0), uint64(1))
	f.Add("519.lbm", "nehalem", "storesets", uint64(1500), int64(7), uint64(0))
	f.Add("", "", "", uint64(0), int64(0), uint64(3))
	f.Add("nonsense", "skylake", "phast:banana", uint64(9), int64(-1), uint64(2))
	f.Add("502.gcc_1", "skylake", "unlimited-phast", uint64(800), int64(3), uint64(7))

	apps := workload.Names()
	f.Fuzz(func(t *testing.T, app, machine, pred string, n uint64, seed int64, flags uint64) {
		if flags&4 != 0 {
			// Half the space maps onto real workloads so valid runs stay
			// reachable from mutated garbage strings.
			app = apps[n%uint64(len(apps))]
		}
		cfg := Config{
			App:       app,
			Machine:   machine,
			Predictor: pred,
			// Bounded and never zero: a zero count would normalise to the
			// 300k-op default and stall fuzzing throughput.
			Instructions: 100 + int(n%2400),
			Seed:         seed,
			FwdFilterOff: flags&1 != 0,
			SVWFilter:    flags&2 != 0,
			Verify:       flags&8 != 0,
		}
		run, err := Run(cfg)
		if err != nil {
			var se *SimError
			if !errors.As(err, &se) {
				t.Fatalf("untyped error: %v", err)
			}
			if se.Kind == "" || strings.TrimSpace(se.Error()) == "" {
				t.Fatalf("SimError missing kind or message: %+v", se)
			}
			if se.Kind == ErrPanic {
				t.Fatalf("simulator panicked: %v\n%s", se, se.Stack)
			}
			return
		}
		if want := uint64(cfg.Normalized().Instructions); run.Committed != want {
			t.Fatalf("committed %d, want %d", run.Committed, want)
		}
	})
}
