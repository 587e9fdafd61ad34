// Package config defines the simulated machine configurations. The default
// is the Alder Lake-like core of Table I in the paper; earlier Intel
// generations (Nehalem, Sandy Bridge, Haswell, Skylake, Sunny Cove) are
// provided for the generational trend study of Fig. 2.
package config

import "fmt"

// Cache describes one cache level.
type Cache struct {
	SizeKB     int
	Ways       int
	LineBytes  int
	HitLatency int // cycles
	MSHRs      int
}

// Sets returns the number of sets implied by the geometry.
func (c Cache) Sets() int {
	lines := c.SizeKB * 1024 / c.LineBytes
	return lines / c.Ways
}

// Machine is a full core + memory hierarchy configuration.
type Machine struct {
	Name string
	Year int // release year, for the Fig. 1 / Fig. 2 timelines

	// Front end.
	FetchWidth int
	// Penalty in cycles to refill the front end after a redirect
	// (branch misprediction or memory-order-violation squash).
	RedirectPenalty int

	// Back end.
	CommitWidth int
	IssuePorts  int // total execution ports
	LoadPorts   int
	StorePorts  int

	ROB int // reorder buffer entries
	IQ  int // issue queue entries
	LQ  int // load queue entries
	SQ  int // store queue / store buffer entries

	// Store buffer drain rate after commit (stores written to L1D per cycle).
	SBDrainPerCycle int

	// Memory hierarchy.
	L1I, L1D, L2, L3 Cache
	MemLatency       int // cycles, beyond L3

	// L1D IP-stride prefetcher degree (0 disables).
	PrefetchDegree int
}

// String returns the configuration name.
func (m Machine) String() string { return m.Name }

// Validate reports configuration errors (non-positive widths or capacities).
func (m Machine) Validate() error {
	checks := []struct {
		name string
		v    int
	}{
		{"FetchWidth", m.FetchWidth}, {"CommitWidth", m.CommitWidth},
		{"IssuePorts", m.IssuePorts}, {"LoadPorts", m.LoadPorts},
		{"StorePorts", m.StorePorts},
		{"ROB", m.ROB}, {"IQ", m.IQ}, {"LQ", m.LQ}, {"SQ", m.SQ},
		{"SBDrainPerCycle", m.SBDrainPerCycle},
		{"RedirectPenalty", m.RedirectPenalty},
		{"MemLatency", m.MemLatency},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("config %s: %s must be positive, got %d", m.Name, c.name, c.v)
		}
	}
	if m.LoadPorts+m.StorePorts > m.IssuePorts {
		return fmt.Errorf("config %s: load+store ports (%d) exceed issue ports (%d)",
			m.Name, m.LoadPorts+m.StorePorts, m.IssuePorts)
	}
	for _, cc := range []struct {
		name string
		c    Cache
	}{{"L1I", m.L1I}, {"L1D", m.L1D}, {"L2", m.L2}, {"L3", m.L3}} {
		if cc.c.SizeKB <= 0 || cc.c.Ways <= 0 || cc.c.LineBytes <= 0 || cc.c.HitLatency <= 0 {
			return fmt.Errorf("config %s: cache %s has non-positive geometry", m.Name, cc.name)
		}
		if cc.c.Sets()*cc.c.Ways*cc.c.LineBytes != cc.c.SizeKB*1024 {
			return fmt.Errorf("config %s: cache %s size not divisible by ways×line", m.Name, cc.name)
		}
	}
	return nil
}

// AlderLake is the paper's Table I configuration: a 4-core Alder Lake
// (Golden Cove) class processor; we simulate one core.
func AlderLake() Machine {
	return Machine{
		Name: "alderlake", Year: 2021,
		FetchWidth: 6, RedirectPenalty: 17,
		CommitWidth: 12, IssuePorts: 12, LoadPorts: 3, StorePorts: 2,
		ROB: 512, IQ: 204, LQ: 192, SQ: 114,
		SBDrainPerCycle: 2,
		L1I:             Cache{SizeKB: 32, Ways: 8, LineBytes: 64, HitLatency: 4, MSHRs: 64},
		L1D:             Cache{SizeKB: 48, Ways: 12, LineBytes: 64, HitLatency: 5, MSHRs: 64},
		L2:              Cache{SizeKB: 1280, Ways: 10, LineBytes: 64, HitLatency: 14, MSHRs: 64},
		L3:              Cache{SizeKB: 3072, Ways: 12, LineBytes: 64, HitLatency: 36, MSHRs: 64},
		MemLatency:      100,
		PrefetchDegree:  3,
	}
}

// Nehalem approximates the 2008 Intel Nehalem core used as the oldest
// generation in Fig. 1 and Fig. 2.
func Nehalem() Machine {
	return Machine{
		Name: "nehalem", Year: 2008,
		FetchWidth: 4, RedirectPenalty: 14,
		CommitWidth: 4, IssuePorts: 6, LoadPorts: 1, StorePorts: 1,
		ROB: 128, IQ: 36, LQ: 48, SQ: 36,
		SBDrainPerCycle: 1,
		L1I:             Cache{SizeKB: 32, Ways: 4, LineBytes: 64, HitLatency: 4, MSHRs: 16},
		L1D:             Cache{SizeKB: 32, Ways: 8, LineBytes: 64, HitLatency: 4, MSHRs: 16},
		L2:              Cache{SizeKB: 256, Ways: 8, LineBytes: 64, HitLatency: 10, MSHRs: 32},
		L3:              Cache{SizeKB: 2048, Ways: 16, LineBytes: 64, HitLatency: 35, MSHRs: 32},
		MemLatency:      100,
		PrefetchDegree:  2,
	}
}

// SandyBridge approximates the 2011 Intel Sandy Bridge core.
func SandyBridge() Machine {
	m := Nehalem()
	m.Name, m.Year = "sandybridge", 2011
	m.ROB, m.IQ, m.LQ, m.SQ = 168, 54, 64, 36
	m.IssuePorts, m.LoadPorts = 6, 2
	m.RedirectPenalty = 15
	return m
}

// Haswell approximates the 2013 Intel Haswell core.
func Haswell() Machine {
	m := SandyBridge()
	m.Name, m.Year = "haswell", 2013
	m.ROB, m.IQ, m.LQ, m.SQ = 192, 60, 72, 42
	m.IssuePorts, m.StorePorts = 8, 2
	return m
}

// Skylake approximates the 2015 Intel Skylake core.
func Skylake() Machine {
	m := Haswell()
	m.Name, m.Year = "skylake", 2015
	m.ROB, m.IQ, m.LQ, m.SQ = 224, 97, 72, 56
	m.FetchWidth, m.CommitWidth = 5, 8
	m.RedirectPenalty = 16
	return m
}

// SunnyCove approximates the 2019 Intel Sunny Cove (Ice Lake) core.
func SunnyCove() Machine {
	m := Skylake()
	m.Name, m.Year = "sunnycove", 2019
	m.ROB, m.IQ, m.LQ, m.SQ = 352, 160, 128, 72
	m.FetchWidth, m.CommitWidth = 5, 10
	m.IssuePorts, m.LoadPorts, m.StorePorts = 10, 2, 2
	m.L1D = Cache{SizeKB: 48, Ways: 12, LineBytes: 64, HitLatency: 5, MSHRs: 32}
	return m
}

// Generations returns the processor generations of the Fig. 2 trend study,
// oldest first.
func Generations() []Machine {
	return []Machine{Nehalem(), SandyBridge(), Haswell(), Skylake(), SunnyCove(), AlderLake()}
}

// ByName returns the named machine configuration.
func ByName(name string) (Machine, error) {
	for _, m := range Generations() {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("config: unknown machine %q", name)
}

// Names lists the available machine configuration names, oldest first.
func Names() []string {
	gens := Generations()
	out := make([]string, len(gens))
	for i, m := range gens {
		out[i] = m.Name
	}
	return out
}
