package policy

import (
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// Nimble models Yan et al.'s Nimble page management (ASPLOS'19): page-
// table scanning harvests accessed bits each interval, any page
// accessed at least once in the interval is "hot" (static threshold of
// one), and background exchange migrations promote hot capacity-tier
// pages while demoting idle fast-tier pages to make room. The
// threshold-of-one classification marks far more pages hot than the
// fast tier can hold on access-rich workloads, generating the massive
// migration traffic §6.2.4 reports (56x MEMTIS on Silo). Scanning cost
// grows linearly with the resident set, which is what hurts it at large
// RSS (Figure 6).
type Nimble struct {
	Base
	scanEveryNS uint64
	lastScan    uint64
	hot         []*vm.Page
	hand        int
}

var _ sim.Policy = (*Nimble)(nil)

// NewNimble returns the Nimble baseline.
func NewNimble() *Nimble { return &Nimble{scanEveryNS: 5_000_000} }

// Name implements sim.Policy.
func (n *Nimble) Name() string { return "nimble" }

// OnAccess implements sim.Policy: the processor sets the PTE accessed
// bit; no faults, no critical-path work.
func (n *Nimble) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	if tr.Faulted {
		n.Register(tr.Page)
	}
	tr.Page.PFlags |= flagAccessed
	return 0
}

// Tick implements sim.Policy: periodic full page-table scan plus the
// exchange-migration pass, both on the scan period. The scan interval
// stretches with the resident set so the scanner never exceeds roughly
// one core — which is precisely why PT scanning cannot keep up as
// memory grows (Insight #1, Figure 6).
func (n *Nimble) Tick(now uint64) {
	minInterval := uint64(len(n.Registry)) * ScanPageNS * 3 / 2
	interval := n.scanEveryNS
	if minInterval > interval {
		interval = minInterval
	}
	if now-n.lastScan < interval {
		return
	}
	n.lastScan = now
	n.Compact()
	n.hot = n.hot[:0]
	for _, pg := range n.Registry {
		if pg.PFlags&flagAccessed != 0 {
			pg.PFlags &^= flagAccessed
			n.M.AS.Watch(pg)
			if pg.Tier != tier.FastTier {
				n.hot = append(n.hot, pg)
			}
			pg.P0 = now // last-seen-accessed stamp
		}
	}
	n.BgNS += uint64(len(n.Registry)) * ScanPageNS
	n.exchange()
}

// exchange promotes scanned-hot pages, demoting the least recently
// scanned fast-tier pages when the fast tier is full. Bounded per wake
// by migration bandwidth, but the hot list refills every scan.
func (n *Nimble) exchange() {
	budget := uint64(8 << 20) // bytes per wake
	for len(n.hot) > 0 && budget > 0 {
		pg := n.hot[0]
		n.hot = n.hot[1:]
		if pg.Dead() || pg.Tier == tier.FastTier {
			continue
		}
		if pg.Bytes() > budget {
			break
		}
		if !n.M.AS.CanMigrate(pg, tier.FastTier) {
			// Demote a victim to make room (exchange).
			if !n.demoteOne(pg.IsHuge()) {
				break
			}
		}
		if n.MigrateAsync(pg, tier.FastTier) {
			budget -= pg.Bytes()
		}
	}
}

func (n *Nimble) demoteOne(huge bool) bool {
	if len(n.Registry) == 0 {
		return false
	}
	tries := len(n.Registry)
	for i := 0; i < tries; i++ {
		if n.hand >= len(n.Registry) {
			n.hand = 0
		}
		pg := n.Registry[n.hand]
		n.hand++
		if pg.Dead() || pg.Tier != tier.FastTier || pg.IsHuge() != huge {
			continue
		}
		if pg.PFlags&flagAccessed != 0 {
			continue // keep very recently accessed pages
		}
		return n.MigrateAsync(pg, n.M.DemoteTarget(pg.Tier))
	}
	// Everything accessed: demote anyway (threshold-of-one thrash).
	for i := 0; i < tries; i++ {
		if n.hand >= len(n.Registry) {
			n.hand = 0
		}
		pg := n.Registry[n.hand]
		n.hand++
		if pg.Dead() || pg.Tier != tier.FastTier || pg.IsHuge() != huge {
			continue
		}
		return n.MigrateAsync(pg, n.M.DemoteTarget(pg.Tier))
	}
	return false
}
