// Lazy-vs-eager cooling equivalence (DESIGN.md §8): the incremental
// classification structures must be an optimisation, not a semantic
// change. An eager reference mode (eagerConverge: cool() settles every
// page before adapting thresholds) is run against the lazy default on
// identical access streams; after the lazy side settles its pending
// epochs, per-page classification, thresholds and the hot set must
// match exactly.
//
// The one documented divergence is MaxBin pinning: a page whose
// hotness saturates the top histogram bin can settle to a different
// bin than an eager halving would produce. Test workloads keep
// per-page hotness well below 2^15 so the equivalence is exact.
package memtis

import (
	"math/rand"
	"reflect"
	"testing"

	"memtis/internal/obs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// equivPair builds a lazy policy and an eager reference policy over
// identical machines. Adaptation and cooling schedules are disabled so
// the test scripts cooling points explicitly; the fast tier is sized
// to hold the whole working set so no migrations perturb the streams.
func equivPair(fastBlocks, capBlocks int) (lazy, eager *Policy, ml, me *sim.Machine, rings [2]*obs.Ring) {
	mk := func(i int) (*Policy, *sim.Machine) {
		p := New(Config{Sampler: everySample(), AdaptEvery: 1 << 62, CoolEvery: 1 << 62})
		rings[i] = obs.NewRing(1 << 16)
		m := sim.NewMachine(sim.Config{
			FastBytes: uint64(fastBlocks) * tier.HugePageSize,
			CapBytes:  uint64(capBlocks) * tier.HugePageSize,
			CapKind:   tier.NVM,
			THP:       true,
			Seed:      1,
			Trace:     obs.NewTracer(rings[i]),
		}, p)
		return p, m
	}
	lazy, ml = mk(0)
	eager, me = mk(1)
	eager.eagerConverge = true
	return lazy, eager, ml, me, rings
}

// settle applies every pending cooling epoch on the lazy side so its
// per-page state is comparable with the eager reference.
func settle(p *Policy) { p.m.AS.ForEachPage(p.applyCooling) }

// compareClassification asserts per-page Count/Bin, thresholds and the
// aggregate hot set match between the two policies.
func compareClassification(t *testing.T, lazy, eager *Policy) {
	t.Helper()
	settle(lazy)
	if lazy.th != eager.th {
		t.Fatalf("thresholds diverged: lazy %+v, eager %+v", lazy.th, eager.th)
	}
	pages := map[uint64]*vm.Page{}
	eager.m.AS.ForEachPage(func(pg *vm.Page) { pages[pg.VPN] = pg })
	lazy.m.AS.ForEachPage(func(pg *vm.Page) {
		ref, ok := pages[pg.VPN]
		if !ok {
			t.Fatalf("page %d exists only on the lazy side", pg.VPN)
		}
		if pg.Count != ref.Count {
			t.Fatalf("page %d: lazy Count %d, eager %d", pg.VPN, pg.Count, ref.Count)
		}
		if pg.Bin != ref.Bin {
			t.Fatalf("page %d: lazy Bin %d, eager %d", pg.VPN, pg.Bin, ref.Bin)
		}
		delete(pages, pg.VPN)
	})
	if len(pages) != 0 {
		t.Fatalf("%d pages exist only on the eager side", len(pages))
	}
	lh, lw, lc := lazy.HotSet()
	eh, ew, ec := eager.HotSet()
	if lh != eh || lw != ew || lc != ec {
		t.Fatalf("hot set diverged: lazy %d/%d/%d, eager %d/%d/%d", lh, lw, lc, eh, ew, ec)
	}
}

// TestLazyEagerEquivalenceScripted runs a hand-written workload — a
// hot page, a warm page, cold pages — through three cooling events
// with accesses interleaved, checking equivalence after every cooling.
func TestLazyEagerEquivalenceScripted(t *testing.T) {
	lazy, eager, ml, me, rings := equivPair(16, 16)
	rl := ml.Reserve(8 * tier.HugePageSize)
	re := me.Reserve(8 * tier.HugePageSize)

	phase := func(hot, warm int) {
		for _, run := range []struct {
			m *sim.Machine
			r vm.Region
		}{{ml, rl}, {me, re}} {
			for i := 0; i < hot; i++ {
				run.m.Access(run.r.BaseVPN+uint64(i%128), false)
			}
			for i := 0; i < warm; i++ {
				run.m.Access(run.r.BaseVPN+2*tier.SubPages+uint64(i%64), i%2 == 0)
			}
			// The coldest pages are faulted in but never revisited.
			run.m.Access(run.r.BaseVPN+5*tier.SubPages, false)
		}
	}

	phase(600, 40)
	for cool := 0; cool < 3; cool++ {
		lazy.DebugForceCool()
		eager.DebugForceCool()
		phase(200, 30)
		compareClassification(t, lazy, eager)
	}
	if lazy.Coolings() != 3 || eager.Coolings() != 3 {
		t.Fatalf("coolings = %d/%d, want 3", lazy.Coolings(), eager.Coolings())
	}
	// Identical event streams: with no migrations in this cell, lazy
	// and eager runs emit the same events at the same virtual times —
	// eager settling changes when counters are halved, not what the
	// machine observes.
	le, ee := rings[0].Events(), rings[1].Events()
	if !reflect.DeepEqual(le, ee) {
		t.Fatalf("event traces diverged: lazy %d events, eager %d", len(le), len(ee))
	}
}

// TestLazyEagerEquivalenceProperty drives random access streams with
// random cooling points through both modes across several seeds. Any
// ordering of samples and coolings must leave lazy and eager in the
// same classification state once the lazy side settles.
func TestLazyEagerEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		lazy, eager, ml, me, _ := equivPair(16, 16)
		rl := ml.Reserve(8 * tier.HugePageSize)
		re := me.Reserve(8 * tier.HugePageSize)

		rng := rand.New(rand.NewSource(seed))
		const steps = 6000
		coolAt := map[int]bool{}
		for len(coolAt) < 4 {
			coolAt[rng.Intn(steps)] = true
		}
		for i := 0; i < steps; i++ {
			// Zipf-ish skew: low offsets dominate, so bins spread out.
			off := uint64(rng.Intn(64) * rng.Intn(64))
			write := rng.Intn(4) == 0
			ml.Access(rl.BaseVPN+off, write)
			me.Access(re.BaseVPN+off, write)
			if coolAt[i] {
				lazy.DebugForceCool()
				eager.DebugForceCool()
			}
		}
		compareClassification(t, lazy, eager)
		if lazy.Coolings() < 3 {
			t.Fatalf("seed %d: only %d coolings exercised", seed, lazy.Coolings())
		}
	}
}

// TestStaleDemotionEntriesNeverMigrated pins the staleness contract of
// the incrementally maintained demotion lists: a page that is unmapped
// or split after entering a list must never be handed out as a
// demotion victim, however the unlink hooks and defensive pop-time
// checks divide the work.
func TestStaleDemotionEntriesNeverMigrated(t *testing.T) {
	pol := New(Config{Sampler: everySample(), AdaptEvery: 1 << 62, CoolEvery: 1 << 62})
	m := sim.NewMachine(sim.Config{
		FastBytes: 8 * tier.HugePageSize,
		CapBytes:  64 * tier.HugePageSize,
		CapKind:   tier.NVM,
		THP:       false, // base pages register cold, straight onto the demo lists
		Seed:      1,
	}, pol)

	r := m.Reserve(2 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, false)
	}
	// One cooling drains the single faulting sample each page carries;
	// once settled, every resident base page is bin-0 cold — exactly
	// the pop order popDemo serves first.
	pol.DebugForceCool()
	settle(pol)
	if n := len(pol.fastByBin[0]); n != int(r.Pages) {
		t.Fatalf("cold list holds %d pages, want %d", n, r.Pages)
	}
	m.FreeRegion(r)
	for pg := pol.popDemo(); pg != nil; pg = pol.popDemo() {
		if pg.Dead() {
			t.Fatalf("popDemo returned dead page %d after FreeRegion", pg.VPN)
		}
		t.Fatalf("popDemo returned page %d from a fully unmapped region", pg.VPN)
	}

	// Split staleness: cool a fast-tier huge page down to the demotion
	// range, then split it. The dead huge page must never surface.
	pol2 := New(Config{Sampler: everySample(), AdaptEvery: 1 << 62, CoolEvery: 1 << 62})
	m2 := newTestMachine(pol2, 8, 16)
	r2 := m2.Reserve(tier.HugePageSize)
	m2.Access(r2.BaseVPN, false)
	hp := m2.AS.Lookup(r2.BaseVPN)
	if hp == nil || !hp.IsHuge() || hp.Tier != tier.FastTier {
		t.Fatal("huge page not resident in fast tier")
	}
	for i := 0; i < 3; i++ { // bin 1 -> 0: into the cold list once settled
		pol2.DebugForceCool()
	}
	settle(pol2)
	if hp.Bin != 0 {
		t.Fatalf("huge page bin %d after cooling, want 0", hp.Bin)
	}
	pol2.splitOne(hp)
	if !hp.Dead() {
		t.Fatal("splitOne left the huge page alive")
	}
	for pg := pol2.popDemo(); pg != nil; pg = pol2.popDemo() {
		if pg.Dead() || pg == hp {
			t.Fatalf("popDemo surfaced the split huge page (vpn %d)", pg.VPN)
		}
		if !pg.IsHuge() && pg.Tier == tier.FastTier {
			continue // live subpage: a legitimate victim
		}
		t.Fatalf("popDemo returned invalid victim vpn=%d tier=%v", pg.VPN, pg.Tier)
	}
	if err := m2.Audit(); err != nil {
		t.Fatalf("address-space audit after split: %v", err)
	}
}
