package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mdp"
	"repro/internal/trace"
)

// pollCtx reports cancellation from its k-th Err poll on.
type pollCtx struct {
	context.Context
	k, polls int
}

func (p *pollCtx) Err() error {
	p.polls++
	if p.polls >= p.k {
		return context.Canceled
	}
	return nil
}

// TestCancelPollLandsOnPeriod pins that dead-cycle jumps never cross a
// watchdogPeriod boundary: the loop polls ctx on exactly the multiples of
// the period, so a context that cancels on its k-th poll aborts a
// memory-bound run (mostly dead cycles) at exactly cycle k×period.
func TestCancelPollLandsOnPeriod(t *testing.T) {
	tr := appTrace(t, "505.mcf", 20_000)
	for _, k := range []int{1, 3, 7} {
		c, err := New(config.AlderLake(), corePHAST(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.RunContext(&pollCtx{Context: context.Background(), k: k}, tr)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: want context.Canceled, got %v", k, err)
		}
		if want := uint64(k) * watchdogPeriod; c.cycle != want {
			t.Errorf("k=%d: aborted at cycle %d, want %d", k, c.cycle, want)
		}
		if c.SkippedCycles() == 0 {
			t.Errorf("k=%d: no cycle was skipped before the abort; the test proves nothing", k)
		}
	}
}

// TestSkippingMemoryBound checks the jump engages where it should: most of
// a memory-bound run's cycles are dead, and the skipped cycles are part of
// (never more than) the reported cycle count.
func TestSkippingMemoryBound(t *testing.T) {
	res := run(t, appTrace(t, "505.mcf", 20_000), corePHAST(), DefaultOptions())
	skipped := res.core.SkippedCycles()
	if skipped*2 < res.res.Cycles || skipped >= res.res.Cycles {
		t.Errorf("skipped %d of %d cycles on 505.mcf; want at least half", skipped, res.res.Cycles)
	}
}

// TestRegisterWritingStoreTiming checks the timing of a consumer of a store
// that writes a register — possible only in decoded traces. Such a store
// can complete in its issue cycle, one cycle sooner than any other
// producer, so the consumer's wake bounds must not overshoot it: every k,
// which shifts the consumer's re-evaluation phase, must give the eager
// stepper's row.
func TestRegisterWritingStoreTiming(t *testing.T) {
	for k := 0; k < 16; k++ {
		var insts []isa.Inst
		add := func(in isa.Inst) {
			in.PC = 0x1000 + 4*uint64(len(insts))
			insts = append(insts, in)
		}
		add(isa.Inst{Kind: isa.Load, Dst: 1, Addr: 0x900000, Size: 8}) // DRAM miss
		for j := 0; j < k; j++ {
			add(isa.Inst{Kind: isa.ALU, Dst: 9, Lat: 1})
		}
		add(isa.Inst{Kind: isa.ALU, Dst: 3, SrcA: 1, Lat: 1})
		add(isa.Inst{Kind: isa.ALU, Dst: 2, SrcA: 1, Lat: 1})
		add(isa.Inst{Kind: isa.Store, Dst: 4, SrcB: 3, Addr: 0x500000, Size: 8})
		for j := 0; j < k%3; j++ {
			add(isa.Inst{Kind: isa.Nop})
		}
		add(isa.Inst{Kind: isa.ALU, Dst: 5, SrcA: 2, SrcB: 4, Lat: 1}) // parked ALU + unissued store
		add(isa.Inst{Kind: isa.ALU, Dst: 6, SrcA: 5, Lat: 1})
		tr := &trace.Trace{Name: fmt.Sprintf("store-dst-%d", k), Insts: insts}
		eagerMatches(t, config.AlderLake(), func() mdp.Predictor { return mdp.NewNone() }, tr)
	}
}
