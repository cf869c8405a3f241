package workload

import (
	"fmt"
	"math/rand"

	"memtis/internal/dist"
	"memtis/internal/sim"
)

// SyntheticRegion is one memory region of a user-defined workload.
type SyntheticRegion struct {
	Name  string
	Bytes uint64
	// SkipInit leaves the region untouched at start (pages fault in on
	// first steady-state access instead), modelling lazily-built heaps.
	SkipInit bool
}

// SyntheticPhase describes one component of the steady-state access
// mix. Each access picks a phase with probability proportional to
// Weight, then draws a page from the phase's distribution over its
// region.
type SyntheticPhase struct {
	Region string
	Weight int
	// Dist selects the index distribution: "zipf", "uniform" or "seq".
	Dist string
	// S is the Zipf exponent (any s > 0; YCSB's standard is 0.99).
	S float64
	// Scramble scatters the distribution's hot indexes across the
	// region (hash-distributed heap placement) so hot data lands on
	// scattered subpages rather than a dense prefix.
	Scramble bool
	// WritePercent of accesses in this phase are stores.
	WritePercent int
}

// SyntheticSpec is a user-defined workload: regions plus an access mix.
// It is the public escape hatch for workloads beyond the paper's eight.
type SyntheticSpec struct {
	Name    string
	Regions []SyntheticRegion
	Phases  []SyntheticPhase
}

// Synthetic is a workload built from a SyntheticSpec.
type Synthetic struct {
	spec SyntheticSpec
}

// NewSynthetic validates the spec and builds the workload.
func NewSynthetic(spec SyntheticSpec) (*Synthetic, error) {
	if spec.Name == "" {
		spec.Name = "synthetic"
	}
	if len(spec.Regions) == 0 {
		return nil, fmt.Errorf("workload: synthetic spec needs at least one region")
	}
	names := map[string]bool{}
	for _, r := range spec.Regions {
		if r.Bytes == 0 {
			return nil, fmt.Errorf("workload: region %q has zero size", r.Name)
		}
		if names[r.Name] {
			return nil, fmt.Errorf("workload: duplicate region %q", r.Name)
		}
		names[r.Name] = true
	}
	if len(spec.Phases) == 0 {
		return nil, fmt.Errorf("workload: synthetic spec needs at least one phase")
	}
	total := 0
	for i, p := range spec.Phases {
		if !names[p.Region] {
			return nil, fmt.Errorf("workload: phase %d references unknown region %q", i, p.Region)
		}
		if p.Weight <= 0 {
			return nil, fmt.Errorf("workload: phase %d has non-positive weight", i)
		}
		switch p.Dist {
		case "zipf", "uniform", "seq":
		default:
			return nil, fmt.Errorf("workload: phase %d has unknown distribution %q", i, p.Dist)
		}
		if p.WritePercent < 0 || p.WritePercent > 100 {
			return nil, fmt.Errorf("workload: phase %d write percent out of range", i)
		}
		total += p.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: zero total phase weight")
	}
	return &Synthetic{spec: spec}, nil
}

// Name implements sim.Workload.
func (s *Synthetic) Name() string { return s.spec.Name }

// TotalBytes returns the summed region sizes (for machine sizing).
func (s *Synthetic) TotalBytes() uint64 {
	var t uint64
	for _, r := range s.spec.Regions {
		t += r.Bytes
	}
	return t
}

// Run implements sim.Workload by driving the synthetic stream.
func (s *Synthetic) Run(m *sim.Machine, accesses uint64) { Run(m, s, accesses) }

// Stream implements Streamer: reserve every region, first-touch the
// initialised ones page by page (budget checked before every access),
// then draw the steady mix until the budget is exhausted.
func (s *Synthetic) Stream(m *sim.Machine, accesses uint64) Stream {
	rng := rand.New(rand.NewSource(m.Cfg.Seed ^ int64(len(s.spec.Name))<<7))
	regions := map[string]region{}
	for _, rs := range s.spec.Regions {
		r := m.Reserve(rs.Bytes)
		regions[rs.Name] = region{r: r, pages: r.Pages}
	}
	var parts []Stream
	for _, rs := range s.spec.Regions {
		if !rs.SkipInit {
			reg := regions[rs.Name]
			parts = append(parts, Sweep(Writes(reg.r.BaseVPN), accesses, reg.pages, 1))
		}
	}
	type armedPhase struct {
		reg   region
		src   dist.Source
		write int
	}
	var phases []armedPhase
	var weights []int
	total := 0
	for _, p := range s.spec.Phases {
		reg := regions[p.Region]
		var src dist.Source
		switch p.Dist {
		case "zipf":
			src = dist.NewZipf(rng, p.S, reg.pages)
		case "uniform":
			src = dist.NewUniform(rng, reg.pages)
		case "seq":
			src = dist.NewSequential(reg.pages)
		}
		if p.Scramble {
			src = dist.NewScrambled(src)
		}
		phases = append(phases, armedPhase{reg: reg, src: src, write: p.WritePercent})
		total += p.Weight
		weights = append(weights, total)
	}
	return Seq(append(parts, Sweep(func() (uint64, bool) {
		pick := rng.Intn(total)
		idx := 0
		for weights[idx] <= pick {
			idx++
		}
		ph := phases[idx]
		return ph.reg.r.BaseVPN + ph.src.Next(), rng.Intn(100) < ph.write
	}, accesses, Unbounded, BatchSize))...)
}

var _ Streamer = (*Synthetic)(nil)
