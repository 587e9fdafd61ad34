// Failure detection for the fleet: one per-peer Up/Suspect/Down state
// machine that feeds the health-filtered ring view the server routes by
// (Fleet.SetDown). It is the only record of a peer's health, fed two ways:
// actively, by a heartbeat prober that GETs every other member's /healthz
// on its own timer, and passively, by the outcome of every real peer hop
// the server makes (Observe). The design is deliberately coordination-free,
// matching the ring itself: every member forms its own opinion of who is
// alive. Opinions can disagree transiently — the peer-run protocol
// tolerates that by construction (/v1/peer/run never re-proxies, so skewed
// views cost an extra hop, never a loop), and the cache keys make any
// routing outcome bit-exact.
//
// State machine per peer:
//
//	Up ──failure──▶ Suspect ──DownAfter consecutive failures──▶ Down
//	 ▲                │                                           │
//	 └────success─────┘            UpAfter consecutive successes──┘
//
// Suspect members are still live ring members (one dropped probe must not
// reshuffle ownership); only Down members are removed from the live view,
// and the ring's minimal-remapping property bounds how many keys move when
// that happens. No hop dials a Down member, so recovery is the probe
// loop's job. Recovery restores the exact prior ownership because the live
// ring is always recomputed from the full membership.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// Health-detector counter and gauge names (published to the server's shared
// registry so probes and transitions land in /metrics next to the proxy and
// retry counters).
const (
	// CounterProbeOK counts successful peer health probes (probes only,
	// not the hop outcomes Observe also receives).
	CounterProbeOK = "cluster.probe.ok"
	// CounterProbeFail counts failed peer health probes (probes only).
	CounterProbeFail = "cluster.probe.fail"
	// CounterTransitionsDown counts peer transitions into Down (a member
	// removed from this node's live ring view).
	CounterTransitionsDown = "cluster.transitions.down"
	// CounterTransitionsUp counts peer recoveries into Up from Suspect or
	// Down.
	CounterTransitionsUp = "cluster.transitions.up"
	// GaugeLiveMembers is this node's current live-member count (full
	// membership minus Down peers).
	GaugeLiveMembers = "cluster.members.live"
)

// State is one peer's health as seen by this node's prober.
type State int

const (
	// StateUp: the peer answers probes; it owns its ring segment.
	StateUp State = iota
	// StateSuspect: the peer failed at least one probe or hop but fewer
	// than DownAfter in a row. Still a live ring member — a single dropped
	// probe must not reshuffle ownership.
	StateSuspect
	// StateDown: the peer failed DownAfter consecutive probes or hops.
	// Removed from the live ring until it recovers.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// PeerHealth is one peer's observable health, exposed via /v1/cluster.
type PeerHealth struct {
	Member           string
	State            State
	ConsecutiveFails int
	LastError        string
}

// ProbeFunc checks one member's health; nil error means healthy. The
// default implementation GETs member/healthz (a drained node's 503 reads as
// a failure, which is exactly right: a draining member should shed its ring
// segment). Tests substitute deterministic fakes.
type ProbeFunc func(ctx context.Context, member string) error

// ProberOptions tune the failure detector. The zero value is usable.
type ProberOptions struct {
	// Interval between probes of one peer (default 1s). Each peer's probe
	// schedule is phase-shifted by a deterministic jitter derived from the
	// member name, so a fleet of identical daemons does not probe in
	// lockstep.
	Interval time.Duration
	// Timeout bounds one probe attempt (default half the interval).
	Timeout time.Duration
	// DownAfter is the consecutive-failure count that demotes a peer from
	// Suspect to Down (default 3).
	DownAfter int
	// UpAfter is the consecutive-success count that promotes a Down peer
	// back to Up (default 1: recovery should be fast, and a flapping peer
	// is re-demoted within DownAfter probes).
	UpAfter int
	// Metrics receives probe and transition counters (default private).
	Metrics *stats.Metrics
	// Probe overrides the health check (default: GET member/healthz).
	Probe ProbeFunc
}

func (o ProberOptions) norm() ProberOptions {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = o.Interval / 2
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	if o.UpAfter <= 0 {
		o.UpAfter = 1
	}
	if o.Metrics == nil {
		o.Metrics = stats.NewMetrics()
	}
	if o.Probe == nil {
		o.Probe = HTTPHealthz
	}
	return o
}

// HTTPHealthz is the production probe: GET member/healthz, any non-200 (or
// transport failure) is unhealthy. Exported so callers can wrap it (the
// server composes it with fault injection: an injected partition must look
// down to the failure detector too).
func HTTPHealthz(ctx context.Context, member string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, member+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// peerState is one peer's mutable health bookkeeping.
type peerState struct {
	state   State
	fails   int // consecutive failures
	succs   int // consecutive successes
	lastErr string
}

// Prober runs the failure detector for one fleet member: it probes every
// peer (never self), takes hop outcomes through Observe, maintains the
// per-peer state machine, and pushes the Down set into the fleet's live
// ring on every transition across the Up/Down boundary. Build with
// NewProber, start with Start, read with States.
type Prober struct {
	fleet *Fleet
	opt   ProberOptions

	mu    sync.Mutex
	peers map[string]*peerState
}

// NewProber builds a prober over fleet. All peers start Up (optimistic:
// a booting fleet must not mark everyone Down before the first probe).
func NewProber(fleet *Fleet, opt ProberOptions) *Prober {
	opt = opt.norm()
	p := &Prober{fleet: fleet, opt: opt, peers: map[string]*peerState{}}
	for _, m := range fleet.Members() {
		if m != fleet.Self() {
			p.peers[m] = &peerState{state: StateUp}
		}
	}
	// Explicit zeros so /metrics shows the detector exists before the
	// first transition.
	for _, c := range []string{CounterProbeOK, CounterProbeFail, CounterTransitionsDown, CounterTransitionsUp} {
		opt.Metrics.Add(c, 0)
	}
	opt.Metrics.Set(GaugeLiveMembers, uint64(fleet.Size()))
	return p
}

// Start launches one probe loop per peer; loops exit when ctx is cancelled.
// Each loop is phase-shifted by a deterministic per-peer jitter
// (hash64(member) mod interval) so the fleet's probe traffic spreads over
// the interval instead of arriving in lockstep bursts.
func (p *Prober) Start(ctx context.Context) {
	for member := range p.peers {
		member := member
		go func() {
			phase := time.Duration(hash64(member) % uint64(p.opt.Interval))
			select {
			case <-time.After(phase):
			case <-ctx.Done():
				return
			}
			ticker := time.NewTicker(p.opt.Interval)
			defer ticker.Stop()
			for {
				p.probeOne(ctx, member)
				select {
				case <-ticker.C:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
}

// ProbeOnce probes every peer once, synchronously — the deterministic entry
// point for tests and for a pre-serving warmup pass.
func (p *Prober) ProbeOnce(ctx context.Context) {
	for member := range p.peers {
		p.probeOne(ctx, member)
	}
}

func (p *Prober) probeOne(ctx context.Context, member string) {
	pctx, cancel := context.WithTimeout(ctx, p.opt.Timeout)
	err := p.opt.Probe(pctx, member)
	cancel()
	if ctx.Err() != nil {
		return // shutting down: a cancelled probe is not evidence
	}
	if err == nil {
		p.opt.Metrics.Add(CounterProbeOK, 1)
	} else {
		p.opt.Metrics.Add(CounterProbeFail, 1)
	}
	p.Observe(member, err)
}

// Observe applies one outcome for member to its state machine — a probe's,
// or a real peer hop's (err nil when the peer answered) — and, when the
// Up/Down boundary is crossed, recomputes the fleet's live ring. Self and
// unknown members are ignored. Safe for concurrent use.
func (p *Prober) Observe(member string, err error) {
	p.mu.Lock()
	ps, ok := p.peers[member]
	if !ok {
		p.mu.Unlock()
		return
	}
	from := ps.state
	if err == nil {
		ps.fails, ps.succs, ps.lastErr = 0, ps.succs+1, ""
		switch ps.state {
		case StateSuspect:
			ps.state = StateUp
		case StateDown:
			if ps.succs >= p.opt.UpAfter {
				ps.state = StateUp
			}
		}
	} else {
		ps.fails, ps.succs, ps.lastErr = ps.fails+1, 0, err.Error()
		if ps.state == StateUp {
			ps.state = StateSuspect
		}
		if ps.fails >= p.opt.DownAfter {
			ps.state = StateDown
		}
	}
	to := ps.state
	var down []string
	changed := from != to
	if changed && (from == StateDown || to == StateDown) {
		for m, s := range p.peers {
			if s.state == StateDown {
				down = append(down, m)
			}
		}
		p.fleet.SetDown(down)
	}
	p.mu.Unlock()

	if changed {
		switch {
		case to == StateDown:
			p.opt.Metrics.Add(CounterTransitionsDown, 1)
		case to == StateUp && from == StateDown:
			p.opt.Metrics.Add(CounterTransitionsUp, 1)
		}
		if from == StateDown || to == StateDown {
			p.opt.Metrics.Set(GaugeLiveMembers, uint64(p.fleet.Size()-len(down)))
		}
	}
}

// States returns every peer's health, sorted by member, self excluded (the
// caller knows its own state). The snapshot is consistent under one lock.
func (p *Prober) States() []PeerHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerHealth, 0, len(p.peers))
	for m, s := range p.peers {
		out = append(out, PeerHealth{
			Member: m, State: s.state, ConsecutiveFails: s.fails,
			LastError: s.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}

// StateOf returns one peer's current state (StateUp for self and unknown
// members — an unknown member is not this prober's to demote).
func (p *Prober) StateOf(member string) State {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.peers[member]; ok {
		return s.state
	}
	return StateUp
}
