// Package faultinject is the chaos-testing switchboard for the simulation
// fleet. A Plan maps fault kinds to firing probabilities; production code
// consults the package-level active plan (nil by default, one atomic load)
// at well-defined injection points — the pipeline cycle loop, the run
// cache's disk reads and writes — and misbehaves on purpose when the plan
// says so.
//
// Decisions are deterministic: whether a fault fires for a given key (and
// at which point inside the run) is a pure hash of (seed, fault, key), so a
// chaos test can predict exactly which configs of a batch fault, rerun the
// batch with the same seed and fault set, and compare the survivors against
// a fault-free baseline bit for bit.
//
// Plans come from Parse ("panic=0.1,stall=0.05,seed=42" — the cmd binaries'
// -faults flag and the PHAST_FAULTS environment variable both use this
// syntax). An empty spec parses to a nil plan, i.e. no injection.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Fault names one injectable failure mode.
type Fault string

const (
	// FaultPanic panics inside the pipeline cycle loop mid-run.
	FaultPanic Fault = "panic"
	// FaultStall wedges the pipeline (zero retirement) mid-run, exercising
	// the zero-retirement watchdog.
	FaultStall Fault = "stall"
	// FaultDiskWrite fails persistent run-cache writes, exercising the
	// store's graceful write degradation.
	FaultDiskWrite Fault = "diskwrite"
	// FaultCorrupt flips bytes of persistent run-cache entries as they are
	// read, exercising the corrupt-entry-reads-as-miss contract.
	FaultCorrupt Fault = "corrupt"
	// FaultSlowDisk delays persistent run-cache reads and writes by
	// SlowDiskDelay, exercising latency tolerance (request deadlines,
	// admission-control queueing) rather than failure paths: a slow disk
	// must cost time, never correctness.
	FaultSlowDisk Fault = "slowdisk"
	// FaultPeerFetch fails fleet peer HTTP operations — owner-proxied runs
	// and peer cache fetches — before any bytes reach the network, keyed by
	// the run-cache key. It exercises the cluster degradation contract: a
	// member that cannot reach its peers must fall back to executing and
	// caching locally (counting runcache.peer.errors / server.proxy.errors),
	// never fail the request.
	FaultPeerFetch Fault = "peerfetch"
	// FaultFwdFlip flips the pipeline's §IV-A1 forwarding-filter condition
	// for a whole run: every conflicting load is wrongly deemed already-
	// correct, so memory-order violations go undetected and stale values
	// retire. It exists as a mutation test for the verification oracle
	// (internal/oracle), which must report the first divergence.
	FaultFwdFlip Fault = "fwdflip"
	// FaultPeerPartition severs this node's link to selected peers: every
	// peer HTTP operation toward an affected member fails before any bytes
	// reach the network. Unlike FaultPeerFetch (keyed by run-cache key, one
	// request at a time) this one is keyed by the peer's member URL, so a
	// firing partition takes out the whole link — exercising retry-to-
	// failure, local fallback, and the failure detector marking the peer
	// Down (from failed probes and failed hops alike).
	FaultPeerPartition Fault = "partition"
	// FaultPeerLatency delays peer HTTP operations toward affected members
	// by PeerLatencyDelay before sending, keyed by member URL. Like
	// FaultSlowDisk it is a latency fault, not a correctness fault: it
	// exercises retry budgets, peer-fetch timeouts and deadline propagation
	// — slow links must cost time, never wrong bytes.
	FaultPeerLatency Fault = "peerlatency"
	// FaultPeerFlap makes this node's link to affected members come and go
	// on a fixed period (severed for the configured fraction of each
	// FlapPeriod window, with a deterministic per-member phase): the
	// flapping-peer torture test for the failure detector's Down/Up cycling
	// and Suspect-state damping. Whether a member flaps at all is decided by
	// Should(FaultPeerFlap, member); when it does, FlapSevered says if the
	// link is down at this instant.
	FaultPeerFlap Fault = "peerflap"
)

// SlowDiskDelay is the per-operation stall FaultSlowDisk injects into
// persistent-store reads and writes.
const SlowDiskDelay = 25 * time.Millisecond

// PeerLatencyDelay is the per-operation stall FaultPeerLatency injects
// before peer HTTP operations.
const PeerLatencyDelay = 50 * time.Millisecond

// FlapPeriod is the full up+down cycle length of FaultPeerFlap.
const FlapPeriod = 2 * time.Second

// Faults lists every injectable fault.
func Faults() []Fault {
	return []Fault{FaultPanic, FaultStall, FaultDiskWrite, FaultCorrupt, FaultSlowDisk,
		FaultPeerFetch, FaultFwdFlip, FaultPeerPartition, FaultPeerLatency, FaultPeerFlap}
}

// Plan maps faults to firing probabilities under one seed. A nil *Plan is
// valid everywhere and injects nothing.
type Plan struct {
	seed  uint64
	rates map[Fault]float64
}

// NewPlan builds a plan from explicit rates (0..1) and a seed.
func NewPlan(seed uint64, rates map[Fault]float64) (*Plan, error) {
	p := &Plan{seed: seed, rates: map[Fault]float64{}}
	for f, r := range rates {
		if !known(f) {
			return nil, fmt.Errorf("faultinject: unknown fault %q", f)
		}
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("faultinject: rate for %q out of [0,1]: %g", f, r)
		}
		p.rates[f] = r
	}
	return p, nil
}

func known(f Fault) bool {
	for _, k := range Faults() {
		if k == f {
			return true
		}
	}
	return false
}

// Parse builds a plan from a comma-separated spec of fault=rate pairs plus
// an optional seed=N pair, e.g. "panic=0.1,stall=0.05,diskwrite=1,seed=7".
// The empty spec returns (nil, nil): no injection.
func Parse(spec string) (*Plan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var seed uint64
	rates := map[Fault]float64{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad spec field %q (want fault=rate)", field)
		}
		if k == "seed" {
			s, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			seed = s
			continue
		}
		r, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad rate in %q: %v", field, err)
		}
		rates[Fault(k)] = r
	}
	return NewPlan(seed, rates)
}

// String renders the plan back into Parse syntax (sorted, for stable logs).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	fields := make([]string, 0, len(p.rates)+1)
	for f, r := range p.rates {
		if r > 0 {
			fields = append(fields, fmt.Sprintf("%s=%g", f, r))
		}
	}
	sort.Strings(fields)
	fields = append(fields, fmt.Sprintf("seed=%d", p.seed))
	return strings.Join(fields, ",")
}

// Rate returns the firing probability for f (0 on a nil plan).
func (p *Plan) Rate(f Fault) float64 {
	if p == nil {
		return 0
	}
	return p.rates[f]
}

// roll maps (seed, f, key, salt) to a uniform value in [0, 1).
func (p *Plan) roll(f Fault, key string, salt string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%s", p.seed, f, key, salt)
	// 53 bits keeps the quotient exactly representable in a float64.
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}

// Should reports deterministically whether fault f fires for key.
func (p *Plan) Should(f Fault, key string) bool {
	if p == nil {
		return false
	}
	r := p.rates[f]
	if r <= 0 {
		return false
	}
	return r >= 1 || p.roll(f, key, "should") < r
}

// Point returns a deterministic value in [0, n) for key — e.g. the cycle at
// which an injected pipeline fault fires. n must be positive.
func (p *Plan) Point(f Fault, key string, n uint64) uint64 {
	if p == nil || n == 0 {
		return 0
	}
	return uint64(p.roll(f, key, "point") * float64(n))
}

// active is the process-wide plan consulted by the injection points.
var active atomic.Pointer[Plan]

// Activate installs p as the process-wide plan (nil disables injection) and
// returns a restore function reinstating the previous plan — tests defer it.
func Activate(p *Plan) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// FlapSevered reports whether a flapping link to member is severed right
// now: within each FlapPeriod window the link is down for the first
// rate-sized fraction, with a deterministic per-member phase offset so a
// fleet's links do not all flap in lockstep. Gate on
// Should(FaultPeerFlap, member) first — this function answers "is the flap
// currently in its down half", not "does this member flap".
func (p *Plan) FlapSevered(member string, now time.Time) bool {
	if p == nil {
		return false
	}
	r := p.rates[FaultPeerFlap]
	if r <= 0 {
		return false
	}
	phase := time.Duration(p.roll(FaultPeerFlap, member, "phase") * float64(FlapPeriod))
	pos := (time.Duration(now.UnixNano()) + phase) % FlapPeriod
	return float64(pos) < r*float64(FlapPeriod)
}

// Active returns the current plan, nil when injection is off. Callers keep
// the single returned pointer for a whole operation so one run sees one
// consistent plan.
func Active() *Plan {
	return active.Load()
}
