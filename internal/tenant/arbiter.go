package tenant

import (
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// tenantCells is one tenant's `tenant/<name>/...` metric block. All
// cells come from the machine registry, so they flow through counter
// snapshots, CSV export and the conformance probes for free.
type tenantCells struct {
	promoDenied   *uint64 // promotions_denied: share vetoes toward Fast
	demoDenied    *uint64 // demotions_denied: floor vetoes away from Fast
	floorViol     *uint64 // floor_violations: warmed floor dips not explained by frees
	contendedProm *uint64 // contended_promotions: units promoted while Fast was contended
	accesses      *uint64 // accesses: final per-tenant access count
	fastPages     *uint64 // fast_pages gauge: final fast-tier footprint, base pages
	residentPages *uint64 // resident_pages gauge: final resident footprint, base pages
}

// arbiter is the QoS layer under the policy: it owns the per-tenant
// fast-tier floors, the weighted promotion shares and the tenant
// metric cells, and implements the vm.MigrateVeto every address space
// shares. It sees migrations *after* the policy decided to move a page
// and can only say no, so every policy inherits the same fairness
// semantics without knowing tenants exist.
//
// Runner.Run builds one per run over the whole mix: the machine's one
// fast tier is the contention domain for floors and weighted promotion
// shares. Liveness flows in through addLive/removeLive at the stream
// positions the scheduler flips it.
type arbiter struct {
	m    *sim.Machine
	live []bool // mirrors the scheduler's tenant liveness

	weights []uint64 // per-tenant share weight (>= 1)
	sumW    uint64   // Σ weights over live tenants
	floors  []uint64 // guaranteed fast floor, base-page units, post-clamp

	// Floor warm-up tracking: a floor only binds once the tenant has
	// actually filled it (warmed), and binds at the level it warmed to
	// (warmedEff) — a growing resident set raises the effective floor,
	// but the guarantee on the not-yet-warmed part starts only once
	// filled. A dip is a violation only if it is not fully explained
	// by the tenant's own frees since the last healthy checkpoint
	// (freedBase).
	warmed    []bool
	warmedEff []uint64
	freedBase []uint64

	// Contended-share accounting. Promotions are arbitrated only
	// while the fast tier's free frames sit under contendThresh;
	// while contended, tenant i may take at most
	// weights[i]/sumW of all contended promotions, plus slack.
	contendThresh     uint64
	contendedPromoted []uint64
	totalContended    uint64

	cells []tenantCells
}

func newArbiter(m *sim.Machine, specs []Spec, names []string) *arbiter {
	n := len(specs)
	a := &arbiter{
		m:                 m,
		live:              make([]bool, n),
		weights:           make([]uint64, n),
		floors:            make([]uint64, n),
		warmed:            make([]bool, n),
		warmedEff:         make([]uint64, n),
		freedBase:         make([]uint64, n),
		contendedPromoted: make([]uint64, n),
		cells:             make([]tenantCells, n),
	}
	capFrames := m.Fast.CapacityFrames()
	a.contendThresh = max(4*tier.SubPages, capFrames/8)
	var totalFloor uint64
	for i, t := range specs {
		a.weights[i] = max(t.Weight, 1)
		a.floors[i] = t.FloorBytes / tier.BasePageSize
		totalFloor += a.floors[i]
	}
	// Floors are guarantees against one shared fast tier: if their sum
	// exceeds 90% of it they are over-committed, so scale them all
	// down proportionally rather than honouring tenants in index order.
	if budget := capFrames * 9 / 10; totalFloor > budget {
		for i := range a.floors {
			a.floors[i] = a.floors[i] * budget / totalFloor
		}
	}
	reg := m.Counters()
	for i, name := range names {
		g := reg.Group("tenant/" + name)
		a.cells[i] = tenantCells{
			promoDenied:   g.Counter("promotions_denied"),
			demoDenied:    g.Counter("demotions_denied"),
			floorViol:     g.Counter("floor_violations"),
			contendedProm: g.Counter("contended_promotions"),
			accesses:      g.Counter("accesses"),
			fastPages:     g.Gauge("fast_pages"),
			residentPages: g.Gauge("resident_pages"),
		}
	}
	return a
}

func (a *arbiter) addLive(i int)    { a.live[i] = true; a.sumW += a.weights[i] }
func (a *arbiter) removeLive(i int) { a.live[i] = false; a.sumW -= a.weights[i] }

// effFloor is the floor a tenant can actually be held to right now:
// a tenant smaller than its floor is only guaranteed its own size.
func (a *arbiter) effFloor(i int) uint64 {
	return min(a.floors[i], a.m.Space(i).ResidentUnits())
}

// veto is the shared vm.MigrateVeto. It is consulted by MigrateTx for
// every page move and by Collapse with the collapse's net fast-tier
// delta; pg identifies the owning tenant, dst the destination tier and
// units the base pages moving in (dst fast) or out (dst capacity) of
// the fast tier.
func (a *arbiter) veto(pg *vm.Page, dst tier.ID, units uint64) bool {
	i := int(pg.Owner)
	c := &a.cells[i]
	fu := a.m.Space(i).FastUnits()
	if dst != tier.FastTier {
		// Demotion: never push a tenant below its effective floor.
		if fu < a.effFloor(i)+units {
			*c.demoDenied++
			return false
		}
		return true
	}
	// Promotion under the floor is part of the guarantee — always
	// admitted and never charged to the contended share.
	if fu+units <= a.effFloor(i) {
		return true
	}
	if a.m.Fast.FreeFrames() >= a.contendThresh || a.sumW == 0 {
		return true
	}
	// Contended: cap tenant i at its weighted share of all promotions
	// granted while contended, plus a fixed burst slack so coarse 2MB
	// moves don't starve everyone at low totals.
	share := a.weights[i] * (a.totalContended + units) / a.sumW
	if a.contendedPromoted[i]+units > share+shareSlackUnits {
		*c.promoDenied++
		return false
	}
	a.contendedPromoted[i] += units
	a.totalContended += units
	*c.contendedProm += units
	return true
}

// checkFloor updates tenant i's floor state: re-anchor the healthy
// checkpoint whenever the current effective floor is met, and count
// one violation per dip below the warmed level that the tenant's own
// frees since that checkpoint cannot explain.
func (a *arbiter) checkFloor(i int) {
	eff := a.effFloor(i)
	if !a.live[i] || eff == 0 {
		return
	}
	as := a.m.Space(i)
	fu := as.FastUnits()
	if fu >= eff {
		a.warmed[i] = true
		a.warmedEff[i] = eff
		a.freedBase[i] = as.FastFreedUnits()
		return
	}
	// The bound is the warmed level, not the current one: a growing
	// resident set raises eff, but the guarantee on the new headroom
	// only starts once the tenant fills it. A shrinking resident set
	// lowers the bound (the shrink itself is credited via fastFreed).
	bound := min(a.warmedEff[i], eff)
	if a.warmed[i] && fu+(as.FastFreedUnits()-a.freedBase[i]) < bound {
		*a.cells[i].floorViol++
		a.warmed[i] = false
	}
}

func (a *arbiter) checkFloors() {
	for i := range a.cells {
		a.checkFloor(i)
	}
}

// finalize publishes the end-of-run per-tenant footprint gauges and
// access totals, and runs a last floor check.
func (a *arbiter) finalize() {
	for i := range a.cells {
		a.checkFloor(i)
		as := a.m.Space(i)
		*a.cells[i].accesses = a.m.SpaceAccesses(i)
		*a.cells[i].fastPages = as.FastUnits()
		*a.cells[i].residentPages = as.ResidentUnits()
	}
}
