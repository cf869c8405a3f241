package scenario

import (
	"fmt"

	"memtis/internal/dist"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// genRNG is a SplitMix64 sequence generator (dist.SplitMix64, as in
// bench's per-cell seeds and tier's fault decision stream), so
// Generate(seed) is a pure function of its seed.
type genRNG struct{ s uint64 }

func newGenRNG(seed uint64) *genRNG { return &genRNG{s: dist.SplitMix64(seed ^ 0x5ce4a210)} }

func (g *genRNG) next() uint64 {
	x := g.s
	g.s += 0x9e3779b97f4a7c15
	return dist.SplitMix64(x)
}

// intn draws uniformly from [0, n).
func (g *genRNG) intn(n int) int { return int(g.next() % uint64(n)) }

// chance reports true with probability num/den.
func (g *genRNG) chance(num, den int) bool { return g.intn(den) < num }

// Generate derives a random but fully seed-deterministic scenario: 1-4
// phases mixing Table 2 workloads (scaled small), synthetic mixes over
// named regions, RSS churn (grow/free events) and, half the time, a
// fault-injection plan. Every generated spec validates and compiles —
// a Generate output failing Validate is itself a bug (pinned by
// TestGenerateAlwaysValid). Region and workload sizes are kept in the
// single- to tens-of-MB range so a fuzz iteration stays cheap.
func Generate(seed uint64) Spec {
	g := newGenRNG(seed)
	s := Spec{Name: fmt.Sprintf("fuzz-%016x", seed)}
	if g.chance(1, 2) {
		s.Faults = genFaults(g)
	}
	// A third of the seeds exercise the multi-tenant form, so the
	// nightly hunt covers the tenant scheduler, churn and QoS arbiter
	// under every policy for free.
	if g.chance(1, 3) {
		s.Tenants = genTenants(g)
		return s
	}
	s.Phases = genPhases(g, 1+g.intn(4))
	return s
}

// genTenants derives 2-4 small tenants: tenant 0 immortal (the spec
// must outlive its churn), later tenants may spawn late, exit early,
// carry fast-tier floors, weights and grow/shrink churn.
func genTenants(g *genRNG) []TenantSpec {
	n := 2 + g.intn(3)
	out := make([]TenantSpec, n)
	for i := range out {
		t := &out[i]
		t.Phases = genPhases(g, 1+g.intn(2))
		if g.chance(1, 2) {
			t.Weight = uint64(1 + g.intn(4))
		}
		if g.chance(1, 3) {
			t.FloorBytes = uint64(1+g.intn(4)) << 20
		}
		if i > 0 && g.chance(1, 3) {
			t.SpawnFrac = 0.1 * float64(1+g.intn(3))
			if g.chance(1, 2) {
				t.ExitFrac = t.SpawnFrac + 0.1*float64(1+g.intn(5))
			}
		}
		if g.chance(1, 4) {
			t.GrowBytes = uint64(1+g.intn(8)) << 20
			t.GrowFrac = 0.1 * float64(1+g.intn(5))
			if g.chance(1, 2) {
				t.ShrinkFrac = t.GrowFrac + 0.1*float64(1+g.intn(3))
			}
		}
	}
	return out
}

// genPhases derives one phase sequence (the single-tenant scenario
// body, and each tenant's program in the multi-tenant form).
func genPhases(g *genRNG, nPhases int) []Phase {
	var phases []Phase
	live := map[string]bool{}
	regionSeq := 0
	zipfS := []float64{0.6, 0.8, 0.99, 1.1, 1.3}
	specs := workload.Specs()
	for i := 0; i < nPhases; i++ {
		var p Phase
		// Phase 0 is always an access source so the scenario is valid
		// and the budget always drains; later phases may be churn-only.
		kind := 0 // 0 = mix, 1 = workload, 2 = churn-only
		switch {
		case i == 0:
			kind = g.intn(2)
		default:
			k := g.intn(10)
			switch {
			case k < 5:
				kind = 0
			case k < 8:
				kind = 1
			default:
				kind = 2
			}
		}
		// Churn first: frees of live regions (never in phase 0), then
		// fresh grows.
		if i > 0 && len(live) > 0 && g.chance(1, 3) {
			p.Free = append(p.Free, pickLive(g, live))
			delete(live, p.Free[0])
		}
		grows := 0
		if kind == 0 {
			// A mix needs at least one region to draw from.
			if len(live) == 0 {
				grows = 1 + g.intn(2)
			} else if g.chance(1, 2) {
				grows = 1
			}
		} else if g.chance(1, 3) {
			grows = 1
		}
		for k := 0; k < grows; k++ {
			name := fmt.Sprintf("r%d", regionSeq)
			regionSeq++
			p.Grow = append(p.Grow, Region{
				Name:     name,
				Bytes:    uint64(1+g.intn(16)) << 20, // 1..16 MB
				SkipInit: g.chance(1, 4),
			})
			live[name] = true
		}
		switch kind {
		case 0:
			nMix := 1 + g.intn(3)
			if nMix > len(live) {
				nMix = len(live)
			}
			for k := 0; k < nMix; k++ {
				e := MixEntry{
					Region:       pickLive(g, live),
					Weight:       1 + g.intn(8),
					WritePercent: g.intn(101),
				}
				switch g.intn(3) {
				case 0:
					e.Dist = "zipf"
					e.S = zipfS[g.intn(len(zipfS))]
					e.Scramble = g.chance(1, 2)
				case 1:
					e.Dist = "uniform"
				case 2:
					e.Dist = "seq"
				}
				p.Mix = append(p.Mix, e)
			}
			p.Weight = float64(1 + g.intn(4))
		case 1:
			p.Workload = specs[g.intn(len(specs))].Name
			// 0.25..2 paper-GB => 2..16 simulated MB: big enough to
			// stress placement, small enough for a cheap fuzz run.
			p.RSSGB = 0.25 * float64(1+g.intn(8))
			p.Weight = float64(1 + g.intn(4))
		}
		phases = append(phases, p)
	}
	return phases
}

// pickLive selects a live region deterministically (iteration order of
// Go maps is randomized, so pick by sorted index instead).
func pickLive(g *genRNG, live map[string]bool) string {
	names := make([]string, 0, len(live))
	for n := range live {
		names = append(names, n)
	}
	// Insertion sort: tiny n, no sort import needed.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names[g.intn(len(names))]
}

// genFaults derives a random-but-valid fault plan and renders it in the
// spec mini-language (the canonical String form, so the scenario spec
// round-trips).
func genFaults(g *genRNG) string {
	var fc tier.FaultConfig
	if g.chance(2, 3) {
		rates := []uint32{1_000, 10_000, 50_000}
		fc.MigrateFailPpm = rates[g.intn(len(rates))]
		fc.MaxRetries = 1 + g.intn(4)
	}
	if g.chance(1, 2) {
		fc.ThrottlePeriodNS = 1_000_000
		fc.ThrottleDutyNS = uint64(100_000 * (1 + g.intn(5)))
		fc.ThrottleFactor = uint64(2 + g.intn(4))
	}
	if g.chance(1, 3) {
		fc.StallPeriodNS = 1_000_000
		fc.StallDutyNS = uint64(100_000 * (1 + g.intn(3)))
		fc.StallNS = uint64(100 * (1 + g.intn(4)))
		if g.chance(1, 2) {
			fc.StallTier = tier.CapacityTier
		}
	}
	return fc.String()
}
