package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/stats"
)

// fakeProbe is a deterministic ProbeFunc: members listed in dead fail,
// everyone else succeeds.
type fakeProbe struct{ dead map[string]bool }

func (f *fakeProbe) fn(_ context.Context, member string) error {
	if f.dead[member] {
		return errors.New("injected: unreachable")
	}
	return nil
}

func testFleet(t *testing.T, n int) *Fleet {
	t.Helper()
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("http://10.0.0.%d:8091", i+1)
	}
	f, err := NewFleet(members[0], members, 16)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestProberStateMachine walks one peer through the full Up → Suspect →
// Down → Up cycle and checks the live ring follows: ownership of the dead
// member's keys remaps to live members while it is Down and snaps back
// exactly on recovery.
func TestProberStateMachine(t *testing.T) {
	fleet := testFleet(t, 3)
	probe := &fakeProbe{dead: map[string]bool{}}
	reg := stats.NewMetrics()
	p := NewProber(fleet, ProberOptions{DownAfter: 3, UpAfter: 1, Metrics: reg, Probe: probe.fn})

	victim := fleet.Members()[1]
	if victim == fleet.Self() {
		victim = fleet.Members()[2]
	}

	// Record ownership of every probe key under the full ring.
	keys := make([]string, 200)
	fullOwner := map[string]string{}
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
		fullOwner[keys[i]] = fleet.Owner(keys[i])
	}

	ctx := context.Background()
	p.ProbeOnce(ctx)
	if got := p.StateOf(victim); got != StateUp {
		t.Fatalf("healthy peer state = %s, want up", got)
	}
	if fleet.LiveSize() != 3 {
		t.Fatalf("live size = %d, want 3", fleet.LiveSize())
	}

	// One failed probe: Suspect, still a live ring member.
	probe.dead[victim] = true
	p.ProbeOnce(ctx)
	if got := p.StateOf(victim); got != StateSuspect {
		t.Fatalf("after 1 failure state = %s, want suspect", got)
	}
	if fleet.LiveSize() != 3 {
		t.Errorf("suspect member was removed from the live ring (size %d)", fleet.LiveSize())
	}

	// Two more failures: Down, removed from the live view.
	p.ProbeOnce(ctx)
	p.ProbeOnce(ctx)
	if got := p.StateOf(victim); got != StateDown {
		t.Fatalf("after 3 failures state = %s, want down", got)
	}
	if fleet.LiveSize() != 2 {
		t.Fatalf("live size with one member down = %d, want 2", fleet.LiveSize())
	}
	if reg.Get(CounterTransitionsDown) != 1 {
		t.Errorf("transitions.down = %d, want 1", reg.Get(CounterTransitionsDown))
	}

	// While Down: the victim owns nothing; every other key keeps its full-
	// ring owner (minimal remapping — only the dead member's keys moved).
	moved := 0
	for _, k := range keys {
		owner := fleet.Owner(k)
		if owner == victim {
			t.Fatalf("down member %s still owns key %s", victim, k)
		}
		if fullOwner[k] != victim && owner != fullOwner[k] {
			t.Errorf("key %s moved from live member %s to %s", k, fullOwner[k], owner)
		}
		if fullOwner[k] == victim {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("test vacuous: victim owned no keys under the full ring")
	}

	// Recovery: one success restores Up and the exact prior ownership.
	probe.dead[victim] = false
	p.ProbeOnce(ctx)
	if got := p.StateOf(victim); got != StateUp {
		t.Fatalf("after recovery state = %s, want up", got)
	}
	if fleet.LiveSize() != 3 {
		t.Fatalf("live size after recovery = %d, want 3", fleet.LiveSize())
	}
	for _, k := range keys {
		if fleet.Owner(k) != fullOwner[k] {
			t.Errorf("key %s owner after recovery = %s, want %s", k, fleet.Owner(k), fullOwner[k])
		}
	}
	if reg.Get(CounterTransitionsUp) != 1 {
		t.Errorf("transitions.up = %d, want 1", reg.Get(CounterTransitionsUp))
	}
}

// TestObserveDrivesStateMachine: hop outcomes reported through Observe
// drive the same state machine the probes do. DownAfter consecutive
// failures demote a peer Up → Suspect → Down and take it out of the live
// ring (Fleet.SetDown); a success from Suspect restores Up; and a peer that
// hops marked Down comes back Up after UpAfter successful probe passes.
// Hop outcomes never touch the probe-only counters.
func TestObserveDrivesStateMachine(t *testing.T) {
	hopErr := errors.New("injected: connection refused")
	type step struct {
		probe bool  // a ProbeOnce pass (every peer healthy) instead of a hop
		err   error // the hop's outcome
		want  State
		live  int // fleet.LiveSize() after the step
	}
	cases := []struct {
		name               string
		downAfter, upAfter int
		steps              []step
	}{
		{"failures demote up, suspect, down", 3, 1, []step{
			{err: hopErr, want: StateSuspect, live: 3},
			{err: hopErr, want: StateSuspect, live: 3},
			{err: hopErr, want: StateDown, live: 2},
		}},
		{"success from suspect restores up", 3, 1, []step{
			{err: hopErr, want: StateSuspect, live: 3},
			{err: hopErr, want: StateSuspect, live: 3},
			{want: StateUp, live: 3},
			{err: hopErr, want: StateSuspect, live: 3},
		}},
		{"hop-marked down recovers by probes", 2, 2, []step{
			{err: hopErr, want: StateSuspect, live: 3},
			{err: hopErr, want: StateDown, live: 2},
			{probe: true, want: StateDown, live: 2},
			{probe: true, want: StateUp, live: 3},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fleet := testFleet(t, 3)
			victim := fleet.Members()[1]
			reg := stats.NewMetrics()
			p := NewProber(fleet, ProberOptions{DownAfter: tc.downAfter, UpAfter: tc.upAfter,
				Metrics: reg, Probe: (&fakeProbe{}).fn})
			probes := 0
			for i, st := range tc.steps {
				if st.probe {
					p.ProbeOnce(context.Background())
					probes++
				} else {
					p.Observe(victim, st.err)
				}
				if got := p.StateOf(victim); got != st.want {
					t.Fatalf("step %d: state = %s, want %s", i, got, st.want)
				}
				if got := fleet.LiveSize(); got != st.live {
					t.Fatalf("step %d: live size = %d, want %d", i, got, st.live)
				}
				for _, m := range fleet.LiveMembers() {
					if m == victim && st.want == StateDown {
						t.Fatalf("step %d: down peer %s still in the live ring", i, victim)
					}
				}
			}
			// Two peers per pass, both healthy: only the probes count.
			if ok, fail := reg.Get(CounterProbeOK), reg.Get(CounterProbeFail); ok != uint64(2*probes) || fail != 0 {
				t.Errorf("probe counters ok=%d fail=%d, want %d and 0", ok, fail, 2*probes)
			}
		})
	}
}

// TestProberSuspectRecovers: a single dropped probe (Suspect) heals back to
// Up without ever touching the live ring or counting a transition across
// the Up/Down boundary.
func TestProberSuspectRecovers(t *testing.T) {
	fleet := testFleet(t, 3)
	probe := &fakeProbe{dead: map[string]bool{}}
	reg := stats.NewMetrics()
	p := NewProber(fleet, ProberOptions{DownAfter: 3, Metrics: reg, Probe: probe.fn})
	victim := fleet.Members()[1]

	probe.dead[victim] = true
	p.ProbeOnce(context.Background())
	probe.dead[victim] = false
	p.ProbeOnce(context.Background())

	if got := p.StateOf(victim); got != StateUp {
		t.Fatalf("state = %s, want up", got)
	}
	if fleet.LiveSize() != 3 {
		t.Errorf("live size = %d, want 3 (suspect must not remap)", fleet.LiveSize())
	}
	if d := reg.Get(CounterTransitionsDown); d != 0 {
		t.Errorf("transitions.down = %d, want 0", d)
	}
}

// TestProberNeverRemovesSelf: even with every peer Down, the live ring
// still contains self, so every key has a live owner (this node).
func TestProberAllPeersDownSelfOwnsEverything(t *testing.T) {
	fleet := testFleet(t, 3)
	probe := &fakeProbe{dead: map[string]bool{
		fleet.Members()[1]: true, fleet.Members()[2]: true,
	}}
	// Self is members[0] by testFleet construction; mark the others dead.
	if fleet.Self() != fleet.Members()[0] {
		t.Fatal("test setup: self is not members[0]")
	}
	p := NewProber(fleet, ProberOptions{DownAfter: 1, Probe: probe.fn})
	p.ProbeOnce(context.Background())

	if fleet.LiveSize() != 1 {
		t.Fatalf("live size = %d, want 1 (self only)", fleet.LiveSize())
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if owner := fleet.Owner(key); owner != fleet.Self() {
			t.Fatalf("key %s owner = %q, want self %q", key, owner, fleet.Self())
		}
	}
	if cands := fleet.FetchCandidates("somekey", 2); len(cands) != 0 {
		t.Errorf("fetch candidates with all peers down = %v, want none", cands)
	}
}

// TestProberStatesSnapshot: States reports every peer sorted by member with
// the right fields.
func TestProberStatesSnapshot(t *testing.T) {
	fleet := testFleet(t, 3)
	probe := &fakeProbe{dead: map[string]bool{fleet.Members()[2]: true}}
	p := NewProber(fleet, ProberOptions{DownAfter: 1, Probe: probe.fn})
	p.ProbeOnce(context.Background())

	states := p.States()
	if len(states) != 2 {
		t.Fatalf("States() has %d rows, want 2 (self excluded)", len(states))
	}
	for i := 1; i < len(states); i++ {
		if states[i-1].Member >= states[i].Member {
			t.Errorf("States() not sorted: %q >= %q", states[i-1].Member, states[i].Member)
		}
	}
	for _, s := range states {
		if s.Member == fleet.Self() {
			t.Error("States() includes self")
		}
		wantState := StateUp
		if probe.dead[s.Member] {
			wantState = StateDown
		}
		if s.State != wantState {
			t.Errorf("member %s state = %s, want %s", s.Member, s.State, wantState)
		}
		if probe.dead[s.Member] && s.LastError == "" {
			t.Errorf("down member %s has no LastError", s.Member)
		}
	}
}

// TestObserveConcurrent: peer hops report from request goroutines while the
// probe loop runs, so Observe, ProbeOnce, States and the live ring must be
// safe together (run under -race). Every goroutine ends with a success, so
// once they have all returned no peer may be left Down.
func TestObserveConcurrent(t *testing.T) {
	fleet := testFleet(t, 3)
	p := NewProber(fleet, ProberOptions{DownAfter: 2, Probe: (&fakeProbe{}).fn})
	hopErr := errors.New("injected: connection reset")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(member string) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Observe(member, hopErr)
				p.Observe(member, hopErr)
				p.States()
				fleet.Owner(fmt.Sprintf("k%d", i))
				p.Observe(member, nil)
			}
		}(fleet.Members()[1+g%2])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			p.ProbeOnce(context.Background())
		}
	}()
	wg.Wait()
	for _, s := range p.States() {
		if s.State == StateDown {
			t.Errorf("peer %s left down after a final success", s.Member)
		}
	}
	if fleet.LiveSize() != 3 {
		t.Errorf("live size = %d, want 3", fleet.LiveSize())
	}
}
