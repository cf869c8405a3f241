// Tenant-sharded parallel simulation (DESIGN.md §13): the tenant
// scheduler run over sim.Sharded's tenant routing. Whole tenants are
// dealt round-robin across S shard machines — tenant t runs as local
// address space t/S on shard t%S — and the scheduler runs entirely on
// the driver goroutine through a shardIssuer: the weighted pick, the
// churn plan, the slice accounting and the reservation layout all come
// from driver-local state (never read back from a shard), so each lane
// receives its op subsequence in deterministic order and the
// block-sharding determinism argument carries over unchanged. Actions
// that do depend on machine state — exit frees sized by residency, QoS
// floor checks, lifecycle trace events — travel as hook ops and run the
// plain scheduler's inline actions on the owning lane at their exact
// stream position.
//
// Every shard gets a private QoS arbiter over its local tenants: a
// shard's fast tier is the only one its tenants contend for, so the
// local mix is the correct contention domain for floors and weighted
// promotion shares. Arbiter state crosses shards only at barriers —
// the final Flush merges the per-shard views into one ArbiterMerge and
// Finish folds the per-tenant rows into the aggregate result.
package tenant

import (
	"fmt"

	"memtis/internal/obs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
	"memtis/internal/workload"
)

// ShardedConfig describes a tenant-sharded run. Machine is the
// aggregate configuration, divided across shards exactly as
// sim.ShardedConfig divides it (FastBytes/CapBytes split and rounded
// to 2MB blocks, per-shard derived seeds). Machine.Trace must be nil;
// per-shard tracing goes through TraceFor.
type ShardedConfig struct {
	// Shards is the shard count S; values < 1 mean 1.
	Shards int
	// Machine is the aggregate machine configuration.
	Machine sim.Config
	// PolicyFor, when non-nil, supplies each shard's private policy
	// instance (fresh per call).
	PolicyFor func(shard int) sim.Policy
	// TraceFor, when non-nil, supplies each shard's private tracer.
	TraceFor func(shard int) *obs.Tracer
	// Sequential applies every op inline on the caller's goroutine —
	// the determinism reference mode; parallel runs must be
	// byte-identical to it.
	Sequential bool
}

// ArbiterMerge is the cross-shard QoS arbiter view, merged at the
// run's final barrier: per-tenant counters indexed by global tenant
// id, plus the contended-promotion total across every shard.
type ArbiterMerge struct {
	TotalContended   uint64   // base pages promoted while contended, all shards
	Contended        []uint64 // per tenant: contended promotions granted
	PromotionsDenied []uint64 // per tenant: arbiter/Admit vetoes toward Fast
	DemotionsDenied  []uint64 // per tenant: floor/Admit vetoes away from Fast
	FloorViolations  []uint64 // per tenant: unexplained floor dips
}

// ShardedResult bundles one tenant-sharded run: per-shard results in
// shard order, the aggregate view (per-tenant rows re-labelled with
// global ids and merged — see sim.AggregateShards), and the merged
// arbiter state.
type ShardedResult struct {
	Shards    []sim.Result
	Aggregate sim.Result
	Arbiter   ArbiterMerge
}

// Hook argument layout: kind in bits 0-3, local tenant id in bits
// 4-23, aux in the bits above (sim.HookOn grants 59 payload bits; the
// largest aux is a slice length, far below 2^35).
const (
	shSwitch uint64 = iota // aux: slice length in accesses
	shSpawn
	shExit
	shFloor  // check one tenant's floor
	shFloors // check every local tenant's floor (after churn)
)

// shardIssuer is the scheduler's issuer on a tenant-sharded machine.
// The access counts are driver-local (each lane's machine belongs to its
// worker between barriers): they advance exactly as TotalAccesses and
// the tenant's space count will once the lanes drain. Reservation bases
// are predicted with vm.NextReservation, and every action that depends
// on machine state travels as a hook op that runs the owning lane's
// machineIssuer at its exact stream position.
type shardIssuer struct {
	s      *sim.Sharded
	shards int
	lanes  []*machineIssuer // per shard; nil when the shard hosts no tenants
	envs   []workload.Env   // per tenant
	next   []uint64         // per tenant: reservation high-water mark
	issued []uint64         // per tenant: accesses issued (its space count)
	total  uint64           // accesses issued machine-wide
	cur    int              // tenant last passed to use
}

// split maps a global tenant id to (shard, local space id).
func (si *shardIssuer) split(t int) (int, int) { return t % si.shards, t / si.shards }

func (si *shardIssuer) Accesses() uint64      { return si.issued[si.cur] }
func (si *shardIssuer) TotalAccesses() uint64 { return si.total }

func (si *shardIssuer) AccessBatch(ops []sim.Op) {
	sh, _ := si.split(si.cur)
	si.s.AccessBatchOn(sh, ops)
	si.total += uint64(len(ops))
	si.issued[si.cur] += uint64(len(ops))
}

func (si *shardIssuer) use(t int) {
	si.cur = t
	sh, loc := si.split(t)
	si.s.UseOn(sh, loc)
}

func (si *shardIssuer) env(t int) workload.Env { return si.envs[t] }

func (si *shardIssuer) hook(t int, kind, aux uint64) {
	sh, loc := si.split(t)
	si.s.HookOn(sh, kind|uint64(loc)<<4|aux<<24)
}

func (si *shardIssuer) spawn(t int)                  { si.hook(t, shSpawn, 0) }
func (si *shardIssuer) exit(t int)                   { si.hook(t, shExit, 0) }
func (si *shardIssuer) switched(t int, slice uint64) { si.hook(t, shSwitch, slice) }
func (si *shardIssuer) checkFloor(t int)             { si.hook(t, shFloor, 0) }

// checkFloors has every shard audit its own tenants at the same stream
// position.
func (si *shardIssuer) checkFloors() {
	for sh, mi := range si.lanes {
		if mi != nil {
			si.s.HookOn(sh, shFloors)
		}
	}
}

// laneHook decodes a hook op on one lane and runs the lane's
// machineIssuer action.
func laneHook(mi *machineIssuer) func(*sim.Machine, uint64) {
	return func(_ *sim.Machine, arg uint64) {
		loc := int(arg >> 4 & 0xFFFFF)
		switch arg & 15 {
		case shSwitch:
			mi.switched(loc, arg>>24)
		case shSpawn:
			mi.spawn(loc)
		case shExit:
			mi.exit(loc)
		case shFloor:
			mi.checkFloor(loc)
		case shFloors:
			mi.checkFloors()
		}
	}
}

// RunSharded executes the runner's tenant plan on a tenant-sharded
// machine for exactly `accesses` machine-wide accesses and returns the
// per-shard results, the aggregate and the merged arbiter state.
// Config.OnChurn is unsupported (it audits one machine mid-run; sharded
// machines are mid-stream at churn time).
func (r *Runner) RunSharded(cfg ShardedConfig, accesses uint64) (*ShardedResult, error) {
	n := len(r.cfg.Tenants)
	if r.cfg.OnChurn != nil {
		return nil, fmt.Errorf("tenant: OnChurn audits one machine mid-run; unsupported on sharded runs")
	}
	S := max(cfg.Shards, 1)
	s := sim.NewSharded(sim.ShardedConfig{
		Shards:     S,
		Machine:    cfg.Machine,
		PolicyFor:  cfg.PolicyFor,
		TraceFor:   cfg.TraceFor,
		Sequential: cfg.Sequential,
	})
	si := &shardIssuer{
		s:      s,
		shards: S,
		lanes:  make([]*machineIssuer, S),
		envs:   make([]workload.Env, n),
		next:   make([]uint64, n),
		issued: make([]uint64, n),
	}
	// Per-shard setup, before the first dispatch (the machines belong to
	// the driver until a lane receives work): each shard hosts tenants
	// sh, sh+S, ... as its local spaces 0, 1, ..., under a private
	// arbiter — a shard's fast tier is the only one its tenants contend
	// for.
	for sh := 0; sh < S && sh < n; sh++ {
		var specs []*Spec
		var names []string
		for t := sh; t < n; t += S {
			specs = append(specs, &r.cfg.Tenants[t])
			names = append(names, tenantName(&r.cfg.Tenants[t], t))
		}
		si.lanes[sh] = hostTenants(s.Machine(sh), specs, names, S, sh)
		s.SetHook(sh, laneHook(si.lanes[sh]))
	}
	for t := range si.envs {
		t, sh := t, t%S
		si.envs[t] = workload.Env{
			Seed: s.Machine(sh).Cfg.Seed,
			Reserve: func(bytes uint64) vm.Region {
				r := vm.NextReservation(si.next[t], bytes)
				si.next[t] = r.BaseVPN + r.Pages
				s.ReserveOn(sh, bytes, r.BaseVPN)
				return r
			},
			Free: func(r vm.Region) { s.FreeOn(sh, r.BaseVPN, r.Pages) },
		}
	}
	newRun(&r.cfg, si, cfg.Machine.Seed, accesses).loop()
	// Final barrier: drain the lanes, then finalize each arbiter (the
	// machines are the driver's again) and merge the per-shard views.
	s.Flush()
	for _, mi := range si.lanes {
		if mi != nil {
			mi.arb.finalize()
		}
	}
	merge := si.mergeArbiters()
	rs := s.Finish("tenants")
	// A shard hosting exactly one tenant stays single-space (the same
	// fast path a one-tenant plain run takes) and so reports no tenant
	// rows; synthesize the row so the aggregate table is complete.
	for sh, mi := range si.lanes {
		if mi == nil || len(mi.arb.cells) != 1 || len(rs[sh].Tenants) != 0 {
			continue
		}
		as := mi.Space(0)
		rs[sh].Tenants = []sim.TenantResult{{
			ID:            0,
			Name:          tenantName(&r.cfg.Tenants[sh], sh),
			Accesses:      mi.SpaceAccesses(0),
			ResidentBytes: as.ResidentUnits() * tier.BasePageSize,
			FastBytes:     as.FastUnits() * tier.BasePageSize,
		}}
	}
	return &ShardedResult{Shards: rs, Aggregate: sim.AggregateShards(rs), Arbiter: merge}, nil
}

// mergeArbiters folds the per-shard arbiter state into the global
// view, indexed by global tenant id. Runs at a barrier: the lanes are
// idle and every counter cell is settled.
func (si *shardIssuer) mergeArbiters() ArbiterMerge {
	n := len(si.envs)
	am := ArbiterMerge{
		Contended:        make([]uint64, n),
		PromotionsDenied: make([]uint64, n),
		DemotionsDenied:  make([]uint64, n),
		FloorViolations:  make([]uint64, n),
	}
	for sh, mi := range si.lanes {
		if mi == nil {
			continue
		}
		a := mi.arb
		am.TotalContended += a.totalContended
		for l := range a.cells {
			g := l*si.shards + sh
			am.Contended[g] = a.contendedPromoted[l]
			am.PromotionsDenied[g] = *a.cells[l].promoDenied
			am.DemotionsDenied[g] = *a.cells[l].demoDenied
			am.FloorViolations[g] = *a.cells[l].floorViol
		}
	}
	return am
}
