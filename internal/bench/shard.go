// Sharded-run harness: VPN sharding deals one address space across the
// shards in whole 2MB blocks, which the workload streams in
// internal/workload (sub-block regions, frees, per-space budgets) do
// not fit, so sharded throughput runs use a synthetic Zipf stream
// over a workload-sized footprint instead — popularity skew like the
// real benchmarks, spread across 2MB blocks so every shard carries its
// share of the hot set.
package bench

import (
	"math/rand"

	"memtis/internal/sim"
	"memtis/internal/tier"
)

// ShardedResult bundles one sharded run: per-shard results in shard
// order plus the aggregate view (sums, slowest-shard time, weighted
// ratios — see sim.AggregateShards).
type ShardedResult struct {
	Shards    []sim.Result
	Aggregate sim.Result
}

// RunSharded executes a synthetic Zipf run over an S-shard machine:
// rssBytes of footprint, the fast tier sized by r exactly as MachineFor
// sizes it, one fresh instance of polName per shard. cfg supplies the
// access budget, seed, capacity kind, fault plan, mover and admission
// config; Topology and Trace are unsupported on sharded machines.
func RunSharded(polName string, shards int, rssBytes uint64, r Ratio, cfg Config) ShardedResult {
	fast := uint64(float64(rssBytes) * r.FastFrac)
	if fast < tier.HugePageSize*2 {
		fast = tier.HugePageSize * 2
	}
	s := sim.NewSharded(sim.ShardedConfig{
		Shards: shards,
		Machine: sim.Config{
			FastBytes: fast,
			CapBytes:  rssBytes + rssBytes/4 + 16*tier.HugePageSize,
			CapKind:   cfg.CapKind,
			THP:       true,
			Threads:   cfg.Threads,
			Seed:      cfg.Seed,
			RecordNS:  cfg.RecordNS,
			Faults:    cfg.Faults,
			Admission: cfg.Admission,
			Mover:     cfg.Mover,
		},
		PolicyFor: func(int) sim.Policy { return NewPolicy(polName) },
	})
	reg := s.Reserve(rssBytes)
	// Fault in block bases first (demand faults map whole huge pages on
	// the THP machine), then run the measured stream: Zipf popularity
	// spread across blocks with a multiplicative hash, as real hot sets
	// span blocks — this is also what keeps the shards load-balanced.
	for vpn := reg.BaseVPN; vpn < reg.BaseVPN+reg.Pages; vpn += tier.SubPages {
		s.Access(vpn, true)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := rand.NewZipf(rng, 1.2, 1, reg.Pages-1)
	for i := uint64(0); i < cfg.Accesses; i++ {
		s.Access(reg.BaseVPN+(z.Uint64()*2654435761)%reg.Pages, i&7 == 0)
	}
	rs := s.Finish("sharded-zipf")
	return ShardedResult{Shards: rs, Aggregate: sim.AggregateShards(rs)}
}
