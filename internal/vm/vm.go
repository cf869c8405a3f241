// Package vm models the virtual-memory side of the simulated machine:
// address spaces sharing one machine-wide Memory, first-touch demand
// paging with THP-style huge-page allocation, page access metadata,
// transactional page migration between tiers, and the huge-page
// split/collapse operations MEMTIS performs in the background. All operations return their cost in
// nanoseconds so the simulator can charge them to the application's
// critical path or to a background daemon, whichever the invoking
// policy mandates.
//
// Migration is a three-phase transaction (reserve destination frame →
// copy at the fault plan's current bandwidth → commit or abort with
// rollback; DESIGN.md §6), so a page is never lost or double-mapped
// even when the machine's fault plan injects transient copy failures;
// Memory.Audit verifies the frame-accounting invariants on demand.
package vm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"memtis/internal/obs"
	"memtis/internal/tier"
)

// Cost model (nanoseconds), from measured Linux costs on recent Xeons.
//
// The simulator compresses footprints ~128x but virtual runtime ~3000x
// (DESIGN.md §4). Costs paid once per page over the whole run (demand
// faults) are divided by the residual compression factor (~24) so their
// fractional share of runtime stays at paper scale. Migration, split
// and shootdown costs are deliberately NOT scaled: a migration is an
// investment repaid by future accesses to the page, and with the access
// stream compressed the same way, scaling those costs down would make
// critical-path migration cheaper than a single capacity-tier access
// and turn fault-driven promotion into a free streaming cache — the
// opposite of the behaviour the paper measures.
const (
	costScale = 24

	BaseFaultNS   = 1_500 / costScale
	HugeFaultNS   = 8_000 / costScale
	MigrateBaseNS = tier.DefaultHopBaseNS
	MigrateHugeNS = tier.DefaultHopHugeNS
	ShootdownNS   = 4_000
	SplitFixedNS  = 12_000
	CollapseNS    = 270_000
	ReclaimBaseNS = 800
)

// PageKind distinguishes huge from base pages.
type PageKind uint8

const (
	BasePage PageKind = iota
	HugePage
)

// pte is one packed page-table entry — the data-oriented core of the
// address space (DESIGN.md §12). The table is a dense VPN-indexed
// []pte, so the translation hot path reads 4 bytes per access instead
// of chasing a *Page into a scattered heap object: the entry carries
// everything TouchFast needs for a seen, already-written access
// (page-record index, huge bit, per-subpage touched and seen bits, tier).
//
// Layout (low to high):
//
//	bits 0..25  page-record index + 1 into the space's arena; 0 means
//	            the slot is unmapped (so a zeroed table is empty)
//	bit  26     huge: the slot belongs to a 2MB mapping (all 512 slots
//	            of the block carry the same record index)
//	bit  27     touched: this 4KB subpage has been written at least
//	            once (mirrors the record's touched bitmap so steady-
//	            state writes never dirty the record's cache line)
//	bit  28     seen: Touch served an access since the mapping was made
//	            or last watched (Watch); huge mappings mirror bt's bit
//	bits 29..31 tier of the mapping (kept in sync with Page.Tier by
//	            every tier-changing operation; Audit verifies it)
type pte uint32

const (
	pteIdxBits   = 26
	pteIdxMask   = 1<<pteIdxBits - 1
	pteHuge      = 1 << 26
	pteTouched   = 1 << 27
	pteSeen      = 1 << 28
	pteTierShift = 29
	pteTierMask  = pte(1<<(32-pteTierShift)-1) << pteTierShift
)

// The tier field must hold every chain position: this constant
// overflows (a compile error) if tier.MaxTiers outgrows bits 29..31.
const _ uint = 1<<(32-pteTierShift) - tier.MaxTiers

// Page-record arena geometry: records live in append-only chunks so a
// *Page handed to a policy is stable for the lifetime of the address
// space (chunks are never reallocated, records never recycled — a
// policy holding a stale pointer to a split or freed page sees
// Dead()==true, exactly as with the historical heap-allocated pages).
// Chunk sizes ramp up by doubling from rampLen to chunkLen and stay at
// chunkLen from then on: a multi-tenant machine holds one arena per
// address space, and a fixed 4096-record first chunk (~650KB) would
// dwarf a small tenant's actual footprint (a 1MB tenant maps 256
// records). The doubling ramp from rampLen to chunkLen/2 covers
// exactly chunkLen-rampLen records, so the fixed-size regime starts at
// record rampTotal with plain shift/mask indexing from there.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
	rampShift  = 6
	rampLen    = 1 << rampShift
	rampChunks = chunkShift - rampShift
	rampTotal  = chunkLen - rampLen
)

// arenaLoc maps a record index to its (chunk, slot) under the ramp
// geometry above.
func arenaLoc(i uint32) (int, uint32) {
	if i < rampTotal {
		c := bits.Len32(i>>rampShift+1) - 1
		return c, i - (rampLen<<c - rampLen)
	}
	i -= rampTotal
	return rampChunks + int(i>>chunkShift), i & chunkMask
}

// chunkSize returns the record capacity of chunk c.
func chunkSize(c int) int {
	if c < rampChunks {
		return rampLen << c
	}
	return chunkLen
}

// Page is one mapped translation unit: a 4KB base page or a 2MB huge
// page. The access-metadata fields mirror what MEMTIS packs into the
// kernel's unused struct page slots (§5); baseline policies use the
// generic scratch words instead of growing the struct per policy.
type Page struct {
	VPN  uint64 // base-page number of the first (or only) subpage
	Kind PageKind
	Tier tier.ID
	// Frame is the first physical frame. A huge page owns 512
	// contiguous frames; after BreakHuge-based splits the subpages own
	// their frames individually via the pages created by Split.
	Frame tier.Frame

	// Count is the page's access counter C_i, halved by cooling so that
	// it tracks an exponential moving average of access frequency.
	Count uint64
	// Bin caches the page-access-histogram bin of the page's hotness
	// factor H_i so histogram updates are O(1).
	Bin int
	// SubCount holds per-subpage access counters for huge pages,
	// allocated lazily on the first sample. Nil for base pages.
	SubCount []uint32
	// touched is a 512-bit bitmap of subpages written at least once;
	// untouched (all-zero) subpages are freed when the page is split.
	touched [tier.SubPages / 64]uint64
	nTouch  uint16

	// Scratch words for policy-private state (recency timestamps,
	// history vectors, list epochs, ...). Policies must not assume any
	// value survives a change of ownership of the page. P2 is the
	// MEMTIS policy's cooling-epoch stamp (lazy cooling, DESIGN.md §8);
	// PIdx is an intrusive slot index for policy-owned membership lists.
	P0, P1, P2 uint64
	PIdx       uint32
	PFlags     uint32

	// Owner is the machine-wide index of the address space that mapped
	// the page (0 on single-space machines). Policies tracking pages
	// from several tenants key their per-block state by Owner so two
	// tenants' identical VPNs never alias (DESIGN.md §10).
	Owner uint32

	// arIdx is the record's index in its space's arena; pte entries
	// store arIdx+1.
	arIdx uint32

	dead bool
}

// IsHuge reports whether the page is a 2MB huge page.
func (p *Page) IsHuge() bool { return p.Kind == HugePage }

// Units returns the page size in 4KB units (1 or 512).
func (p *Page) Units() uint64 {
	if p.IsHuge() {
		return tier.SubPages
	}
	return 1
}

// Bytes returns the page size in bytes.
func (p *Page) Bytes() uint64 { return p.Units() * tier.BasePageSize }

// Hotness returns the hotness factor H_i (§4.1.2): the raw access count
// for huge pages, and Count * 512 for base pages, compensating for a
// base page being 512x less likely to be sampled.
func (p *Page) Hotness() uint64 {
	if p.IsHuge() {
		return p.Count
	}
	return p.Count * tier.SubPages
}

// SubHotness returns the hotness factor of subpage j, on the same
// compensated scale as base pages.
func (p *Page) SubHotness(j int) uint64 {
	if p.SubCount == nil {
		return 0
	}
	return uint64(p.SubCount[j]) * tier.SubPages
}

// Touched reports whether subpage j has ever been written.
func (p *Page) Touched(j int) bool {
	return p.touched[j/64]&(1<<uint(j%64)) != 0
}

// TouchedCount returns how many subpages have ever been written.
func (p *Page) TouchedCount() int { return int(p.nTouch) }

func (p *Page) markTouched(j int) {
	w, b := j/64, uint(j%64)
	if p.touched[w]&(1<<b) == 0 {
		p.touched[w] |= 1 << b
		p.nTouch++
	}
}

// Placer decides the initial tier of a newly faulted page. Returning
// NoTier lets the address space use its default (fast tier while free,
// then capacity).
type Placer interface {
	PlaceNew(huge bool, vpn uint64) tier.ID
}

// Stats aggregates the VM-level event counters.
type Stats struct {
	Faults          uint64
	FaultNS         uint64
	Migrations4K    uint64
	MigrationsHuge  uint64
	MigratedBytes   uint64
	Promotions      uint64 // migrations into the fast tier (pages)
	Demotions       uint64 // migrations out of the fast tier (pages)
	MigrateAborts   uint64 // transactions rolled back by injected copy faults
	AbortNS         uint64 // cost charged for the wasted copies of aborts
	Splits          uint64
	Collapses       uint64
	Shootdowns      uint64
	ReclaimedFrames uint64 // zero subpages freed by splits
}

// Memory is the machine-wide half of the virtual-memory model: the
// tier chain with its migration cost model, the hooks the machine and
// its policy install, the VM counters, and the list of address spaces
// that share them. A machine builds one, and every AddressSpace embeds
// it, so a hook set through any space handle reaches every space, added
// before or after, and a migration counts once whichever handle a
// policy moves the page through.
type Memory struct {
	// Fast and Cap alias the first and last tier of the chain — the
	// endpoints every two-tier policy knows by name. On deeper chains
	// the full ordering lives in tiers; use Tier/Depth.
	Fast *tier.Tier
	Cap  *tier.Tier

	// tiers is the full chain, fastest first. Always non-empty;
	// tiers[0] == Fast and tiers[len-1] == Cap.
	tiers []*tier.Tier
	// hopBase/hopHuge are the per-hop migration copy costs
	// (len(tiers)-1 entries).
	hopBase []uint64
	hopHuge []uint64

	// THP controls whether 2MB-aligned, >=2MB reservations fault in as
	// huge pages (Linux THP=always) or everything uses base pages.
	THP bool

	placer Placer

	// OnUnmap, when set, is invoked for every live page released by
	// Free so policies can drop the page from their bookkeeping.
	OnUnmap func(p *Page)

	// Trace receives fault/migration/split/collapse events. Set by the
	// machine when tracing is enabled; nil otherwise (emits are no-ops
	// on nil, so the paths below need no guards).
	Trace *obs.Tracer

	// Faults is the machine's fault-injection plan; migration
	// transactions and the mover consult it for copy failures and
	// bandwidth throttling. Nil (the default) disables fault injection
	// — every FaultPlan method is nil-safe.
	Faults *tier.FaultPlan
	// Clock reads the machine's virtual time; the fault plan's
	// throttle windows are functions of it. Nil reads as zero.
	Clock func() uint64

	// MigrateVeto, when set, may deny a tier-changing operation before
	// any frame is reserved or cost charged. It is consulted only for
	// moves that change fast-tier residency (dst or src is tier 0 —
	// on a two-tier machine, every migration); hops between lower
	// tiers are QoS-neutral. It receives a page of the affected range
	// (for owner identity), the destination tier, and the number of
	// 4KB units that would change tier. A false return
	// turns MigrateTx into MigrateDenied and makes Collapse fail
	// without side effects. This is the QoS arbitration hook: floors
	// and weighted shares (DESIGN.md §10) are enforced here, below
	// every policy, so no promotion or demotion path can bypass them.
	MigrateVeto func(p *Page, dst tier.ID, units uint64) bool

	// spaces lists the address spaces sharing the memory; Page.Owner
	// indexes it. MigrateTx never reads a page table, so policies
	// migrate any space's pages through whichever handle they hold, and
	// per-space unit accounting follows the page's owner.
	spaces []*AddressSpace

	stats Stats
}

// AddressSpace is one process's virtual memory image over a tiered
// machine. Virtual addresses are dense base-page numbers handed out by
// a bump allocator; the page table is a flat slice for O(1) translation.
// The machine-wide state — tiers, hooks, counters — is the embedded
// Memory every space of the machine shares.
type AddressSpace struct {
	*Memory

	// pt is the packed page table: one pte per reserved base VPN. Its
	// length may be trimmed below nextVPN when Free releases a trailing
	// range; fault paths re-grow it on demand. Every entry past len(pt),
	// up to cap(pt), is zero (unmapped): only Free shortens the table,
	// and only over slots it has cleared, so re-growing it within its
	// capacity needs no clearing. The same holds for bt and bn.
	pt []pte
	// bt is the block table: one entry per 2MB block, non-zero exactly
	// when the whole block is a single live huge mapping, holding that
	// mapping's pte (sans touched bit). It is a 512x-compressed read
	// cache over pt — at paper scale the access stream is huge-page
	// dominated, and the block table keeps its working set L1-resident
	// where the full pt would thrash L2. pt stays authoritative
	// (per-subpage touched bits live only there); every huge-mapping
	// mutation updates both, and Audit checks them equal.
	bt []pte
	// bn counts the mapped slots of each 2MB block (same length as bt),
	// so the tail trim, huge-page eligibility and the cursor walker
	// cross an all-unmapped block in one probe, not 512. Every path
	// that maps or unmaps a slot updates it, and Audit checks it.
	bn []uint16
	// chunks is the page-record arena: append-only chunks (doubling
	// ramp, then fixed-size — see arenaLoc), so records are dense in
	// memory (background sweeps walk them cache-linearly) while *Page
	// handles stay stable forever.
	chunks [][]Page
	nAlloc uint32

	hugeOK  []bool // per 2MB block: fully covered by one reservation
	nextVPN uint64
	nPages  int // live Page objects

	// Tenant is this space's index in its memory's space list; pages
	// mapped here carry it in Page.Owner. Zero for a machine's root
	// space.
	Tenant uint32

	// residentUnits / fastUnits track this space's mapped 4KB units
	// (total, and the subset on the fast tier) incrementally, so
	// per-tenant gauges and floor arbitration are O(1) reads even
	// when many spaces share the tiers.
	residentUnits uint64
	fastUnits     uint64
	// fastFreed counts fast-tier units this space released through
	// non-migration paths — Free and split bloat reclaim. Demotions
	// below a tenant's floor are vetoed, so these are the only
	// legitimate ways a warmed tenant's fast footprint can shrink
	// below its floor; the QoS arbiter credits them when checking for
	// floor violations.
	fastFreed uint64
}

// NewAddressSpaceTiers creates a memory over an N-deep tier chain
// (fastest first; at least two tiers) and returns its root space;
// AddSpace adds more. topo supplies the per-hop migration cost model;
// nil charges every hop the default MigrateBaseNS/MigrateHugeNS.
func NewAddressSpaceTiers(tiers []*tier.Tier, topo *tier.Topology, thp bool) *AddressSpace {
	if len(tiers) < 2 {
		panic("vm: address space needs at least two tiers")
	}
	if len(tiers) > tier.MaxTiers {
		panic("vm: tier chain deeper than tier.MaxTiers")
	}
	mem := &Memory{
		Fast:  tiers[0],
		Cap:   tiers[len(tiers)-1],
		tiers: tiers,
		THP:   thp,
	}
	if topo == nil {
		topo = &tier.Topology{Tiers: make([]tier.Config, len(tiers))}
	}
	if topo.Depth() != len(tiers) {
		panic("vm: topology depth does not match tier chain")
	}
	mem.hopBase, mem.hopHuge = topo.HopCosts()
	return mem.AddSpace()
}

// AddSpace appends an empty address space to the memory and returns
// it; its Tenant is its index in Spaces.
func (mem *Memory) AddSpace() *AddressSpace {
	as := &AddressSpace{Memory: mem, Tenant: uint32(len(mem.spaces))}
	mem.spaces = append(mem.spaces, as)
	return as
}

// Spaces returns the memory's address spaces in index order, the root
// space first.
func (mem *Memory) Spaces() []*AddressSpace { return mem.spaces }

// Depth returns the number of tiers in the chain.
func (mem *Memory) Depth() int { return len(mem.tiers) }

// Tier returns the tier at chain position id (0 = fastest).
func (mem *Memory) Tier(id tier.ID) *tier.Tier { return mem.tiers[id] }

// LastTier returns the ID of the deepest tier of the chain.
func (mem *Memory) LastTier() tier.ID { return tier.ID(len(mem.tiers) - 1) }

// HopCostNS returns the migration copy cost of moving one page of the
// given size from src to dst: the sum of the per-hop costs of every
// hop crossed (adjacent tiers cross one). It is the unthrottled cost;
// MigrateTx applies the fault plan's window factor on top.
func (mem *Memory) HopCostNS(src, dst tier.ID, huge bool) uint64 {
	lo, hi := min(src, dst), max(src, dst)
	hops := mem.hopBase
	if huge {
		hops = mem.hopHuge
	}
	var ns uint64
	for _, c := range hops[lo:hi] {
		ns += c
	}
	return ns
}

// SetPlacer installs the policy hook for initial page placement.
func (mem *Memory) SetPlacer(p Placer) { mem.placer = p }

// Stats returns a snapshot of the VM counters of every space sharing
// the memory.
func (mem *Memory) Stats() Stats { return mem.stats }

// ResidentUnits returns the space's mapped 4KB units.
func (as *AddressSpace) ResidentUnits() uint64 { return as.residentUnits }

// FastUnits returns the space's mapped 4KB units on the fast tier.
func (as *AddressSpace) FastUnits() uint64 { return as.fastUnits }

// FastFreedUnits returns the cumulative fast-tier units released by
// Free and split reclaim (never by migration).
func (as *AddressSpace) FastFreedUnits() uint64 { return as.fastFreed }

// ReservedPages returns the bump allocator's high-water mark in base
// pages; Region{0, ReservedPages()} covers every possible mapping of
// the space (tenant exit frees exactly that region).
func (as *AddressSpace) ReservedPages() uint64 { return as.nextVPN }

// SpaceOf returns the space whose page table maps p and whose
// resident/fast unit counters a mutation of p adjusts. Page-table
// operations (Split, Collapse, Lookup by VPN) go through it; a
// migration may go through any space handle.
func (mem *Memory) SpaceOf(p *Page) *AddressSpace { return mem.spaces[p.Owner] }

// Region is a reserved virtual address range.
type Region struct {
	BaseVPN uint64
	Pages   uint64 // length in base pages
}

// Bytes returns the region length in bytes.
func (r Region) Bytes() uint64 { return r.Pages * tier.BasePageSize }

// Reserve allocates a 2MB-aligned virtual range of at least bytes. No
// physical memory is committed until first touch.
func (as *AddressSpace) Reserve(bytes uint64) Region {
	pages := (bytes + tier.BasePageSize - 1) / tier.BasePageSize
	// Align the base so THP regions can map huge pages.
	if rem := as.nextVPN % tier.SubPages; rem != 0 {
		as.nextVPN += tier.SubPages - rem
	}
	r := Region{BaseVPN: as.nextVPN, Pages: pages}
	as.nextVPN += pages
	need := int(as.nextVPN)
	as.ensurePT(need)
	if nb := (need + tier.SubPages - 1) / tier.SubPages; nb > len(as.hugeOK) {
		nh := make([]bool, nb+nb/2+1)
		copy(nh, as.hugeOK)
		as.hugeOK = nh
	}
	// Only 2MB blocks fully covered by this reservation may fault in
	// as huge pages (the region base is 2MB-aligned).
	for b := r.BaseVPN / tier.SubPages; (b+1)*tier.SubPages <= r.BaseVPN+r.Pages; b++ {
		as.hugeOK[b] = true
	}
	return r
}

// ensurePT grows the page table (and the parallel block tables) to
// cover at least need entries, re-extending a table Free previously
// trimmed. New entries are zero, i.e. unmapped: fresh allocations are
// zeroed, and entries re-exposed within the capacity were left zero
// (see AddressSpace.pt).
func (as *AddressSpace) ensurePT(need int) {
	if need > len(as.pt) {
		if need > cap(as.pt) {
			nt := make([]pte, need+need/2+tier.SubPages)
			copy(nt, as.pt)
			as.pt = nt
		}
		as.pt = as.pt[:need]
	}
	if nb := (len(as.pt) + tier.SubPages - 1) / tier.SubPages; nb > len(as.bt) {
		if nb > cap(as.bt) {
			nt := make([]pte, nb+nb/2+1)
			copy(nt, as.bt)
			as.bt = nt
			nn := make([]uint16, len(nt))
			copy(nn, as.bn)
			as.bn = nn
		}
		as.bt = as.bt[:nb]
		as.bn = as.bn[:nb]
	}
}

// pageAt resolves a non-zero pte to its arena record.
func (as *AddressSpace) pageAt(e pte) *Page {
	c, s := arenaLoc(uint32(e&pteIdxMask) - 1)
	return &as.chunks[c][s]
}

// newPage appends a zeroed record to the arena. Records are never
// recycled: policies legitimately hold *Page across splits and frees
// and rely on Dead() — a recycled record would alias a live page.
func (as *AddressSpace) newPage() *Page {
	if as.nAlloc >= pteIdxMask {
		panic("vm: page-record arena exhausted the pte's 26 index bits")
	}
	ci, slot := arenaLoc(as.nAlloc)
	if ci == len(as.chunks) {
		as.chunks = append(as.chunks, make([]Page, chunkSize(ci)))
	}
	pg := &as.chunks[ci][slot]
	*pg = Page{arIdx: as.nAlloc}
	as.nAlloc++
	return pg
}

// pteFor builds the table entry mapping a vpn to pg, unseen and without
// the touched bit (which tracks per-slot write state).
func pteFor(pg *Page) pte {
	e := pte(pg.arIdx+1) | pte(pg.Tier)<<pteTierShift
	if pg.Kind == HugePage {
		e |= pteHuge
	}
	return e
}

// setTierPTE rewrites the tier bits of every slot of a live page after
// a tier change, keeping the packed table (and, for huge pages, the
// block table) in sync with Page.Tier; the seen bit survives.
func (as *AddressSpace) setTierPTE(p *Page) {
	nt := pte(p.Tier) << pteTierShift
	for i := p.VPN; i < p.VPN+p.Units(); i++ {
		as.pt[i] = as.pt[i]&^pteTierMask | nt
	}
	if p.IsHuge() {
		b := p.VPN / tier.SubPages
		as.bt[b] = as.bt[b]&^pteTierMask | nt
	}
}

// Watch clears p's seen bit, so TouchFast declines p's next access and
// it takes Touch (on a machine, OnAccess too): the model of clearing a
// PTE's accessed bit or arming a NUMA-hint fault (sim.FastSampled).
// Any space handle serves; a dead page is left alone.
func (mem *Memory) Watch(p *Page) {
	if !p.dead {
		mem.SpaceOf(p).setSeen(p, 0)
	}
}

// setSeen sets p's seen bit to seen (pteSeen or 0) in its slots and,
// for a huge page, its block entry; the slots mirror the block entry,
// so when it already agrees there is nothing to do.
func (as *AddressSpace) setSeen(p *Page, seen pte) {
	if p.IsHuge() {
		b := p.VPN / tier.SubPages
		if as.bt[b]&pteSeen == seen {
			return
		}
		as.bt[b] = as.bt[b]&^pteSeen | seen
	}
	for i := p.VPN; i < p.VPN+p.Units(); i++ {
		as.pt[i] = as.pt[i]&^pteSeen | seen
	}
}

// Lookup returns the page mapping vpn, or nil when unmapped.
func (as *AddressSpace) Lookup(vpn uint64) *Page {
	if vpn >= uint64(len(as.pt)) {
		return nil
	}
	e := as.pt[vpn]
	if e == 0 {
		return nil
	}
	return as.pageAt(e)
}

// TouchResult describes the outcome of one memory access.
type TouchResult struct {
	Page    *Page
	SubIdx  int // subpage index within a huge page (0 for base pages)
	Tier    tier.ID
	FaultNS uint64 // demand-paging cost incurred on this access
	Faulted bool
	// Huge mirrors Page.IsHuge() so the access hot path (TLB insert)
	// never needs to dereference the page record.
	Huge bool
}

// hugeEligible reports whether vpn can fault in as a huge page: the
// whole 2MB-aligned block around it must be reserved and unmapped.
// A block past len(bt) (a table Free trimmed) is unmapped by
// construction; hugeOK already guarantees the block is fully reserved.
func (as *AddressSpace) hugeEligible(vpn uint64) bool {
	b := vpn / tier.SubPages
	if b >= uint64(len(as.hugeOK)) || !as.hugeOK[b] {
		return false
	}
	return b >= uint64(len(as.bn)) || as.bn[b] == 0
}

// placeFor resolves the initial tier for a faulting page, falling back
// to the first tier of the chain with room (fast while free, then down
// the chain, the deepest tier as last resort), and degrading huge
// allocations that the chosen tier cannot satisfy.
func (as *AddressSpace) placeFor(huge bool, vpn uint64) tier.ID {
	want := tier.NoTier
	if as.placer != nil {
		want = as.placer.PlaceNew(huge, vpn)
	}
	if want == tier.NoTier {
		for id, t := range as.tiers[:len(as.tiers)-1] {
			if huge && t.HasHugeFrame() {
				return tier.ID(id)
			}
			if !huge && t.FreeFrames() > 0 {
				return tier.ID(id)
			}
		}
		return as.LastTier()
	}
	return want
}

// Touch performs one access to vpn: demand-faults the page on first
// touch (THP maps the surrounding 2MB block as a huge page when
// eligible) and returns the mapping plus any fault cost. Write touches
// mark the subpage as non-zero for later bloat reclaim. An access to a
// mapped page sets the mapping's seen bit; a demand fault leaves the
// new mapping unseen, so the access after it comes back here too.
//
// The mapped case locates the page record by arithmetic (chunk index);
// it touches the record and writes the tables only on a watch
// transition (seen clear) or a first write to the subpage. Steady-state
// callers that do not consume TouchResult.Page try TouchFast first.
func (as *AddressSpace) Touch(vpn uint64, write bool) TouchResult {
	var faultNS uint64 // non-zero exactly when this access faults
	if vpn >= uint64(len(as.pt)) || as.pt[vpn] == 0 {
		faultNS = as.touchFault(vpn)
	}
	e := as.pt[vpn]
	pg, sub := as.pageAt(e), 0
	if e&pteHuge != 0 {
		// Huge mappings are always 2MB-aligned.
		sub = int(vpn & (tier.SubPages - 1))
	}
	if e&pteSeen == 0 && faultNS == 0 {
		as.setSeen(pg, pteSeen)
	}
	if write && e&pteTouched == 0 {
		as.pt[vpn] |= pteTouched
		pg.markTouched(sub)
	}
	return TouchResult{Page: pg, SubIdx: sub, Tier: tier.ID(e >> pteTierShift),
		FaultNS: faultNS, Faulted: faultNS != 0, Huge: e&pteHuge != 0}
}

// TouchFast serves a steady-state access for callers that do not
// consume TouchResult.Page, without building a TouchResult at all:
// three scalars come back in registers, and the body is small enough
// to inline into the simulator's access loop. Huge-mapping reads —
// the dominant access class at paper scale — are answered from the
// block table alone: one load from a 512x-compressed, L1-resident
// table, where the full pt working set would thrash the cache.
// Writes (which need the per-subpage touched bit) and base-page
// traffic read the packed pte instead. ok=false means the access
// needs Touch: the mapping is unseen (new, or watched since its last
// access), the write is the subpage's first, or the vpn faults.
// TouchFast has no side effects.
func (as *AddressSpace) TouchFast(vpn uint64, write bool) (t tier.ID, huge, ok bool) {
	if vpn < uint64(len(as.pt)) {
		if !write {
			// bt always covers pt, so the block index is in range.
			if e := as.bt[vpn/tier.SubPages]; e&pteSeen != 0 {
				return tier.ID(e >> pteTierShift), true, true
			}
		}
		if e := as.pt[vpn]; e&pteSeen != 0 && (!write || e&pteTouched != 0) {
			return tier.ID(e >> pteTierShift), e&pteHuge != 0, true
		}
	}
	return 0, false, false
}

// TouchLite is TouchFast with Touch as its fallback, for callers that
// do not consume TouchResult.Page on the steady-state path (the
// benchmark's per-layer replay); Page is set only when Touch ran.
func (as *AddressSpace) TouchLite(vpn uint64, write bool) TouchResult {
	if t, huge, ok := as.TouchFast(vpn, write); ok {
		return TouchResult{Tier: t, Huge: huge}
	}
	return as.Touch(vpn, write)
}

// touchFault maps the page the first touch of vpn faults in, unseen,
// and returns the fault cost. A touch of an unreserved vpn is a
// workload bug and panics.
func (as *AddressSpace) touchFault(vpn uint64) uint64 {
	if vpn >= as.nextVPN {
		panic(fmt.Sprintf("vm: touch of unreserved vpn %d", vpn))
	}
	as.stats.Faults++
	var pg *Page
	ns := uint64(BaseFaultNS)
	if as.THP && as.hugeEligible(vpn) {
		pg, ns = as.mapHuge(vpn), HugeFaultNS
	} else {
		pg = as.mapBase(vpn)
	}
	as.stats.FaultNS += ns
	as.Trace.Emit(obs.EvDemandFault, pg.VPN, pg.IsHuge(), pg.Bytes(), ns)
	return ns
}

// mapHuge maps the 2MB block around vpn as one huge page, or vpn alone
// as a base page when no tier has a huge frame.
func (as *AddressSpace) mapHuge(vpn uint64) *Page {
	baseVPN := vpn - vpn%tier.SubPages
	id := as.placeFor(true, baseVPN)
	t := as.Tier(id)
	f, err := t.AllocHuge()
	if err != nil {
		// Fall back to the other tiers in chain order, then to base pages.
		id, f, err = as.allocFallback(id, true)
		if err != nil {
			return as.mapBase(vpn)
		}
	}
	pg := as.newPage()
	pg.VPN, pg.Kind, pg.Tier, pg.Frame, pg.Owner = baseVPN, HugePage, id, f, as.Tenant
	as.ensurePT(int(baseVPN + tier.SubPages))
	e := pteFor(pg)
	for i := uint64(0); i < tier.SubPages; i++ {
		as.pt[baseVPN+i] = e
	}
	as.bt[baseVPN/tier.SubPages] = e
	as.bn[baseVPN/tier.SubPages] = tier.SubPages
	as.nPages++
	as.residentUnits += tier.SubPages
	if id == tier.FastTier {
		as.fastUnits += tier.SubPages
	}
	return pg
}

func (as *AddressSpace) mapBase(vpn uint64) *Page {
	id := as.placeFor(false, vpn)
	t := as.Tier(id)
	f, err := t.AllocBase()
	if err != nil {
		id, f, err = as.allocFallback(id, false)
		if err != nil {
			panic("vm: all tiers out of memory")
		}
	}
	pg := as.newPage()
	pg.VPN, pg.Kind, pg.Tier, pg.Frame, pg.Owner = vpn, BasePage, id, f, as.Tenant
	as.ensurePT(int(vpn + 1))
	as.pt[vpn] = pteFor(pg)
	as.bn[vpn/tier.SubPages]++
	as.nPages++
	as.residentUnits++
	if id == tier.FastTier {
		as.fastUnits++
	}
	return pg
}

// allocFallback tries every tier other than failed in chain order
// (fastest first) until one satisfies the allocation.
func (as *AddressSpace) allocFallback(failed tier.ID, huge bool) (tier.ID, tier.Frame, error) {
	for id := range as.tiers {
		if tier.ID(id) == failed {
			continue
		}
		var f tier.Frame
		var err error
		if huge {
			f, err = as.tiers[id].AllocHuge()
		} else {
			f, err = as.tiers[id].AllocBase()
		}
		if err == nil {
			return tier.ID(id), f, nil
		}
	}
	return failed, 0, tier.ErrOutOfMemory
}

// CanMigrate reports whether dst currently has room for the page.
func (mem *Memory) CanMigrate(p *Page, dst tier.ID) bool {
	if p.Tier == dst || p.dead {
		return false
	}
	t := mem.Tier(dst)
	if p.IsHuge() {
		return t.HasHugeFrame()
	}
	return t.FreeFrames() > 0
}

// MigrateStatus classifies the outcome of one migration transaction.
type MigrateStatus uint8

const (
	// MigrateOK: the transaction committed; the page lives on dst.
	MigrateOK MigrateStatus = iota
	// MigrateNoSpace: the reserve phase found no room on dst; nothing
	// was charged and the page stays put. This is an admission
	// failure, not a fault — retrying without freeing memory is
	// pointless.
	MigrateNoSpace
	// MigrateAborted: the copy phase faulted (injected by the fault
	// plan); the reservation was rolled back, the page keeps its
	// source mapping, and the returned ns is the wasted copy cost.
	// Transient — the caller may retry within the plan's retry bound.
	MigrateAborted
	// MigrateDenied: the memory's MigrateVeto (QoS arbitration) refused
	// the move before anything was reserved or charged. Like no-space
	// this is an admission outcome, not a fault: retrying immediately
	// is pointless, the arbiter's state must change first.
	MigrateDenied
)

// String names the status for diagnostics.
func (s MigrateStatus) String() string {
	switch s {
	case MigrateOK:
		return "ok"
	case MigrateNoSpace:
		return "no-space"
	case MigrateAborted:
		return "aborted"
	case MigrateDenied:
		return "denied"
	default:
		return "unknown"
	}
}

// MigrateTx moves the page to dst with a three-phase transaction:
//
//	reserve  allocate the destination frame (fails: MigrateNoSpace,
//	         nothing charged);
//	copy     charge the copy at the fault plan's current bandwidth
//	         factor, then let the plan fail it (fails: free the
//	         reservation, keep the source mapping untouched, return
//	         MigrateAborted with the wasted cost);
//	commit   remap the page to the new frame, free the source frame,
//	         and broadcast the TLB shootdown.
//
// The source mapping is only touched in commit, so an abort can never
// lose the page or leave it double-mapped — Audit checks exactly that.
func (mem *Memory) MigrateTx(p *Page, dst tier.ID) (ns uint64, st MigrateStatus) {
	if p.dead || p.Tier == dst {
		return 0, MigrateNoSpace
	}
	if mem.MigrateVeto != nil && (dst == tier.FastTier || p.Tier == tier.FastTier) &&
		!mem.MigrateVeto(p, dst, p.Units()) {
		return 0, MigrateDenied
	}
	src := mem.Tier(p.Tier)
	dt := mem.Tier(dst)

	// Reserve.
	var nf tier.Frame
	var err error
	copyNS := mem.HopCostNS(p.Tier, dst, p.IsHuge())
	if p.IsHuge() {
		nf, err = dt.AllocHuge()
	} else {
		nf, err = dt.AllocBase()
	}
	if err != nil {
		return 0, MigrateNoSpace
	}

	// Copy, at the (possibly throttled) migration bandwidth.
	if mem.Faults != nil {
		var now uint64
		if mem.Clock != nil {
			now = mem.Clock()
		}
		copyNS *= mem.Faults.CopyCostFactor(now)
		if mem.Faults.FailCopy() {
			// Abort: roll back the reservation. The page was never
			// remapped, so the source mapping is still authoritative.
			if p.IsHuge() {
				dt.FreeHuge(nf)
			} else {
				dt.FreeBase(nf)
			}
			mem.stats.MigrateAborts++
			mem.stats.AbortNS += copyNS
			mem.Trace.Emit(obs.EvMigrateAbort, p.VPN, p.IsHuge(), p.Bytes(), copyNS)
			return copyNS, MigrateAborted
		}
	}

	// Commit.
	if p.IsHuge() {
		src.FreeHuge(p.Frame)
		mem.stats.MigrationsHuge++
	} else {
		src.FreeBase(p.Frame)
		mem.stats.Migrations4K++
	}
	p.Frame = nf
	ns = copyNS + ShootdownNS
	ow := mem.SpaceOf(p)
	if dst < p.Tier {
		mem.stats.Promotions += p.Units()
		mem.Trace.Emit(obs.EvPromotion, p.VPN, p.IsHuge(), p.Bytes(), ns)
	} else {
		mem.stats.Demotions += p.Units()
		mem.Trace.Emit(obs.EvDemotion, p.VPN, p.IsHuge(), p.Bytes(), ns)
	}
	// Fast-tier residency only changes when the move crosses the top
	// boundary; hops between lower tiers leave fastUnits untouched.
	if dst == tier.FastTier {
		ow.fastUnits += p.Units()
	} else if p.Tier == tier.FastTier {
		ow.fastUnits -= p.Units()
	}
	mem.stats.Shootdowns++
	mem.Trace.Emit(obs.EvShootdown, p.VPN, p.IsHuge(), 0, 0)
	mem.stats.MigratedBytes += p.Bytes()
	p.Tier = dst
	ow.setTierPTE(p)
	return ns, MigrateOK
}

// SubDest selects the destination tier for subpage j of a huge page
// being split. Returning NoTier keeps the subpage in the source tier.
type SubDest func(j int) tier.ID

// Split breaks a huge page into base pages (§4.3.3). Never-written
// subpages are unmapped and freed to reclaim bloat. dest picks the tier
// of each surviving subpage; subpages staying in the source tier keep
// their physical frames (no copy). Returns the new base pages and the
// total cost. Per-subpage access counts carry over; the huge page's own
// counter is distributed by subpage share so the histogram stays
// consistent under the caller's re-accounting.
func (as *AddressSpace) Split(p *Page, dest SubDest) (subs []*Page, ns uint64) {
	if !p.IsHuge() || p.dead {
		panic("vm: split of non-huge or dead page")
	}
	src := as.Tier(p.Tier)
	src.BreakHuge(p.Frame)
	as.bt[p.VPN/tier.SubPages] = 0
	ns = SplitFixedNS + ShootdownNS
	as.stats.Splits++
	as.stats.Shootdowns++
	as.Trace.Emit(obs.EvShootdown, p.VPN, true, 0, 0)
	reclaimedBefore := as.stats.ReclaimedFrames
	subs = make([]*Page, 0, tier.SubPages)
	for j := 0; j < tier.SubPages; j++ {
		vpn := p.VPN + uint64(j)
		if !p.Touched(j) {
			// All-zero subpage: unmap and free (memory bloat reclaim).
			src.FreeBase(p.Frame + tier.Frame(j))
			as.pt[vpn] = 0
			as.bn[vpn/tier.SubPages]--
			as.stats.ReclaimedFrames++
			as.residentUnits--
			if p.Tier == tier.FastTier {
				as.fastUnits--
				as.fastFreed++
			}
			ns += ReclaimBaseNS
			continue
		}
		var cnt uint64
		if p.SubCount != nil {
			cnt = uint64(p.SubCount[j])
		}
		np := as.newPage()
		np.VPN, np.Kind, np.Tier, np.Frame, np.Count, np.Owner = vpn, BasePage, p.Tier, p.Frame+tier.Frame(j), cnt, p.Owner
		np.markTouched(0)
		as.pt[vpn] = pteFor(np) | pteTouched
		as.nPages++
		subs = append(subs, np)
		if d := dest(j); d != tier.NoTier && d != np.Tier {
			// An aborted subpage move still charges its wasted copy;
			// the subpage simply stays in the source tier.
			mns, _ := as.MigrateTx(np, d)
			ns += mns
		}
	}
	p.dead = true
	as.nPages--
	as.Trace.Emit(obs.EvSplit, p.VPN, true, p.Bytes(), as.stats.ReclaimedFrames-reclaimedBefore)
	return subs, ns
}

// Collapse coalesces 512 contiguous base pages back into one huge page
// in tier dst. All 512 VPNs starting at baseVPN must be mapped by base
// pages. Returns the new huge page and the cost; ok is false when dst
// cannot provide a huge frame or the range is not collapsible.
func (as *AddressSpace) Collapse(baseVPN uint64, dst tier.ID) (hp *Page, ns uint64, ok bool) {
	if baseVPN%tier.SubPages != 0 {
		return nil, 0, false
	}
	var olds [tier.SubPages]*Page
	var fastOlds uint64
	for j := 0; j < tier.SubPages; j++ {
		pg := as.Lookup(baseVPN + uint64(j))
		if pg == nil || pg.IsHuge() {
			return nil, 0, false
		}
		if pg.Tier == tier.FastTier {
			fastOlds++
		}
		olds[j] = pg
	}
	// A collapse changes the tier of every subpage not already on dst,
	// so it must pass the same QoS arbitration as an explicit
	// migration of the net unit delta (a collapse into the capacity
	// tier is a demotion of fastOlds units and must not dodge a
	// tenant's fast-tier floor).
	if as.MigrateVeto != nil {
		switch {
		case dst == tier.FastTier && fastOlds < tier.SubPages:
			if !as.MigrateVeto(olds[0], dst, tier.SubPages-fastOlds) {
				return nil, 0, false
			}
		case dst != tier.FastTier && fastOlds > 0:
			if !as.MigrateVeto(olds[0], dst, fastOlds) {
				return nil, 0, false
			}
		}
	}
	t := as.Tier(dst)
	nf, err := t.AllocHuge()
	if err != nil {
		return nil, 0, false
	}
	hp = as.newPage()
	hp.VPN, hp.Kind, hp.Tier, hp.Frame, hp.Owner = baseVPN, HugePage, dst, nf, olds[0].Owner
	hp.SubCount = make([]uint32, tier.SubPages)
	he := pteFor(hp) | pteTouched
	for j := 0; j < tier.SubPages; j++ {
		old := olds[j]
		hp.SubCount[j] = uint32(old.Count)
		hp.Count += old.Count
		hp.markTouched(j)
		as.Tier(old.Tier).FreeBase(old.Frame)
		old.dead = true
		as.pt[baseVPN+uint64(j)] = he
		as.nPages--
	}
	as.bt[baseVPN/tier.SubPages] = pteFor(hp)
	as.nPages++
	as.fastUnits -= fastOlds
	if dst == tier.FastTier {
		as.fastUnits += tier.SubPages
	}
	as.stats.Collapses++
	as.stats.Shootdowns++
	as.Trace.Emit(obs.EvCollapse, baseVPN, true, hp.Bytes(), 0)
	as.Trace.Emit(obs.EvShootdown, baseVPN, true, 0, 0)
	return hp, CollapseNS + ShootdownNS, true
}

// Free unmaps every mapped page of the region, returning frames to
// their tiers. Used by workloads with short-lived allocations.
//
// Freeing a trailing range shrinks the page table: the all-unmapped
// tail is trimmed so background walkers don't cycle over dead address
// space forever (fault paths re-grow the table on demand). The trim is
// invisible to iteration semantics — every walker treats an unmapped
// slot and an out-of-range slot identically.
func (as *AddressSpace) Free(r Region) {
	end := r.BaseVPN + r.Pages
	if n := uint64(len(as.pt)); end > n {
		end = n
	}
	for vpn := r.BaseVPN; vpn < end; vpn++ {
		e := as.pt[vpn]
		if e == 0 {
			continue
		}
		pg := as.pageAt(e)
		if as.OnUnmap != nil {
			as.OnUnmap(pg)
		}
		t := as.Tier(pg.Tier)
		if pg.IsHuge() {
			t.FreeHuge(pg.Frame)
			for i := uint64(0); i < tier.SubPages; i++ {
				as.pt[pg.VPN+i] = 0
			}
			as.bt[pg.VPN/tier.SubPages] = 0
			as.bn[pg.VPN/tier.SubPages] = 0
			vpn = pg.VPN + tier.SubPages - 1
		} else {
			t.FreeBase(pg.Frame)
			as.pt[vpn] = 0
			as.bn[vpn/tier.SubPages]--
		}
		as.residentUnits -= pg.Units()
		if pg.Tier == tier.FastTier {
			as.fastUnits -= pg.Units()
			as.fastFreed += pg.Units()
		}
		pg.dead = true
		as.nPages--
	}
	// An all-unmapped block is crossed in one step: the gap between
	// the live data and a freed tail buffer grows with every Reserve.
	n := len(as.pt)
	for n > 0 && as.pt[n-1] == 0 {
		if b := (n - 1) / tier.SubPages; as.bn[b] == 0 {
			n = b * tier.SubPages
		} else {
			n--
		}
	}
	as.pt = as.pt[:n]
	// The trimmed blocks are all-unmapped, so their bt entries and
	// counts are already zero; only the lengths need to follow.
	nb := (n + tier.SubPages - 1) / tier.SubPages
	as.bt = as.bt[:nb]
	as.bn = as.bn[:nb]
}

// Dead reports whether the page has been split, collapsed or freed.
func (p *Page) Dead() bool { return p.dead }

// RSSFrames returns the resident set size in 4KB frames: the frames
// every space sharing the memory has mapped.
func (mem *Memory) RSSFrames() uint64 {
	var n uint64
	for _, t := range mem.tiers {
		n += t.UsedFrames()
	}
	return n
}

// RSSBytes returns the resident set size in bytes.
func (mem *Memory) RSSBytes() uint64 { return mem.RSSFrames() * tier.BasePageSize }

// LivePages returns the number of live Page objects (huge counts as 1).
func (as *AddressSpace) LivePages() int { return as.nPages }

// ForEachPage invokes fn for every live page exactly once, in strictly
// ascending VPN order, independent of insertion, migration or
// split/collapse history. Policies rely on this order for
// byte-identical traces across runs and workers; it is pinned by a
// regression test (TestForEachPageDeterministicOrder) and must not be
// weakened by switching the page table to an unordered container.
//
// All three walkers share one loop (walk) and one callback contract:
// the callback may migrate the visited page or update its metadata,
// and may start a nested walk, but must not unmap, split or collapse
// pages. None of them allocates.
func (as *AddressSpace) ForEachPage(fn func(p *Page)) {
	as.walk(0, uint64(len(as.pt)), math.MaxInt, fn)
}

// ForEachPageFrom visits up to max live pages in ascending-VPN order
// starting at the cursor VPN, wrapping past the end of the address
// space back to 0, and returns the cursor to resume from (the VPN just
// past the last slot examined). Passing the returned cursor back in
// eventually visits every live page: a full cycle of calls covers the
// address space once. A cursor that lands mid-huge-page (the layout
// changed between calls) visits that page once and skips past it.
// It is the bounded, incremental walker for background sweeps
// (cooling convergence, the §8 hybrid scan); one call goes around the
// table at most once.
func (as *AddressSpace) ForEachPageFrom(cursor uint64, max int, fn func(p *Page)) uint64 {
	n := uint64(len(as.pt))
	if n == 0 || max <= 0 {
		return 0
	}
	// The table may have shrunk since the cursor was handed out (Free
	// trimmed a trailing range). Fold the cursor back into range
	// instead of snapping to 0: a snap would restart every in-flight
	// sweep at the low VPNs and starve the high end of the address
	// space of cooling/scan coverage.
	cursor %= n
	next, visited := as.walk(cursor, n, max, fn)
	if next >= n {
		// The wrapped leg stops at the start cursor: one full cycle.
		next, _ = as.walk(0, cursor, max-visited, fn)
	}
	return next % n
}

// ForEachPageSlice visits up to max live pages in ascending-VPN order
// starting at cursor, without wrapping: it returns the cursor to
// resume from and done=true once the end of the table is reached.
// Machine-level walkers compose it across several address spaces into
// one wrapping cursor (a space index in the high bits, this VPN cursor
// in the low bits) so a background sweep covers every tenant's pages.
func (as *AddressSpace) ForEachPageSlice(cursor uint64, max int, fn func(p *Page)) (next uint64, done bool) {
	n := uint64(len(as.pt))
	if cursor >= n || max <= 0 {
		return 0, true
	}
	next, _ = as.walk(cursor, n, max, fn)
	return next, next >= n
}

// walk visits, in ascending-VPN order, up to max live pages mapped at
// slots [from, end), end <= len(pt), and returns the slot just past the
// last one examined and the number visited. A page whose mapping
// starts below from but covers it (a cursor mid-huge-page) is visited
// and skipped past; an all-unmapped 2MB block is crossed in one step,
// clipped to end, so the walk stops where a slot-by-slot one would.
func (as *AddressSpace) walk(from, end uint64, max int, fn func(p *Page)) (next uint64, visited int) {
	for from < end && visited < max {
		e := as.pt[from]
		step := uint64(1)
		if e != 0 {
			pg := as.pageAt(e)
			fn(pg)
			visited++
			step = pg.VPN + pg.Units() - from
		} else if as.bn[from/tier.SubPages] == 0 {
			step = min((from/tier.SubPages+1)*tier.SubPages, end) - from
		}
		from += step
	}
	return from, visited
}

// EnsureSubCount lazily allocates the per-subpage counters of a huge
// page (done on first PEBS sample touching it).
func (p *Page) EnsureSubCount() {
	if p.IsHuge() && p.SubCount == nil {
		p.SubCount = make([]uint32, tier.SubPages)
	}
}

// frameAudit is the scratch of one Audit call,
// allocated per call so that AddressSpace carries no audit state. used
// holds one bit per frame of each tier, set when a mapped page claims
// the frame; slots counts the page-table slots mapping each record of
// the space being walked, indexed by arena index; blocks counts its
// mapped slots per 2MB block.
type frameAudit struct {
	used   [][]uint64
	slots  []uint32
	blocks []uint16
	spaces []*AddressSpace // every space the call walks, in walk order
}

func newFrameAudit(mem *Memory) frameAudit {
	a := frameAudit{used: make([][]uint64, len(mem.tiers)), spaces: mem.spaces}
	for i, t := range mem.tiers {
		a.used[i] = make([]uint64, t.CapacityFrames()/64) // whole 2MB blocks
	}
	var recs uint32
	var blocks int
	for _, as := range mem.spaces {
		recs = max(recs, as.nAlloc)
		blocks = max(blocks, len(as.bt))
	}
	a.slots = make([]uint32, recs)
	a.blocks = make([]uint16, blocks)
	return a
}

// claim marks pg's frames used. It fails when a frame lies beyond the
// tier's capacity or an earlier page of the walk already claimed it.
func (a *frameAudit) claim(pg *Page) error {
	bm := a.used[pg.Tier]
	end := uint64(pg.Frame) + pg.Units()
	if capF := uint64(len(bm)) * 64; end > capF {
		return fmt.Errorf("vm: page %d maps frames %d..%d beyond the %s tier's %d",
			pg.VPN, pg.Frame, end-1, pg.Tier, capF)
	}
	// A huge page's aligned frames fill whole bitmap words: claim them a
	// word at a time when all are free, and otherwise bit by bit, which
	// finds the first frame claimed twice.
	if pg.Frame%64 == 0 && end%64 == 0 {
		ws := bm[pg.Frame/64 : end/64]
		if !slices.ContainsFunc(ws, func(w uint64) bool { return w != 0 }) {
			for i := range ws {
				ws[i] = ^uint64(0)
			}
			return nil
		}
	}
	for f := uint64(pg.Frame); f < end; f++ {
		w, b := f/64, f%64
		if bm[w]&(1<<b) != 0 {
			pa := tier.PhysAddr{Tier: pg.Tier, Frame: tier.Frame(f)}
			return fmt.Errorf("vm: frame %v double-mapped by pages %d and %d",
				pa, a.firstMapper(pa), pg.VPN)
		}
		bm[w] |= 1 << b
	}
	return nil
}

// firstMapper names the page that claimed frame pa before the walk
// found it claimed again: it re-walks the spaces in walk order and
// returns the VPN of the first page covering pa. The walk stops at its
// first double mapping, so exactly one page ahead of the failing slot
// covers pa; every other cover sits at or after that slot. Only a
// failing audit pays for this second walk, which is what spares the
// audit a frame-owner table.
func (a *frameAudit) firstMapper(pa tier.PhysAddr) uint64 {
	for _, as := range a.spaces {
		for _, e := range as.pt {
			if e == 0 {
				continue
			}
			if pg := as.pageAt(e); pg.Tier == pa.Tier && pa.Frame >= pg.Frame &&
				uint64(pa.Frame-pg.Frame) < pg.Units() {
				return pg.VPN
			}
		}
	}
	panic(fmt.Sprintf("vm: audit found frame %v claimed twice but no page covering it", pa))
}

// auditMapped walks one space's page table, checking the per-space
// invariants (no dead or out-of-range mappings, every page owned by
// this space, no frame double-mapped — including against frames that
// sibling spaces walked earlier in the same audit claimed — the
// incremental resident/fast unit counters and per-block slot counts
// exact, and the tables zero past their length) and returns the mapped
// units per tier (indexed by chain position).
func (as *AddressSpace) auditMapped(a *frameAudit) ([]uint64, error) {
	units := make([]uint64, len(as.tiers))
	slots := a.slots[:as.nAlloc]
	clear(slots)
	blocks := a.blocks[:len(as.bt)]
	clear(blocks)
	pt := as.pt
	for vpn := 0; vpn < len(pt); vpn++ {
		e := pt[vpn]
		if e == 0 {
			continue
		}
		if idx := uint32(e & pteIdxMask); idx > as.nAlloc {
			return nil, fmt.Errorf("vm: pte at vpn %d indexes record %d beyond the arena (%d allocated)",
				vpn, idx-1, as.nAlloc)
		}
		pg := as.pageAt(e)
		if pg.dead {
			return nil, fmt.Errorf("vm: dead page %d still mapped at vpn %d", pg.VPN, vpn)
		}
		off := uint64(vpn) - pg.VPN
		if off >= pg.Units() {
			return nil, fmt.Errorf("vm: page %d (units %d) mapped out of range at vpn %d",
				pg.VPN, pg.Units(), vpn)
		}
		if pg.Owner != as.Tenant {
			return nil, fmt.Errorf("vm: page %d owned by space %d but mapped in space %d",
				pg.VPN, pg.Owner, as.Tenant)
		}
		// The packed entry's cached bits must agree with the record —
		// a desync here means a tier-changing path forgot setTierPTE
		// (the access hot path would charge the wrong tier's latency).
		if got := tier.ID(e >> pteTierShift); got != pg.Tier {
			return nil, fmt.Errorf("vm: pte at vpn %d caches tier %v but page %d is on %v",
				vpn, got, pg.VPN, pg.Tier)
		}
		if (e&pteHuge != 0) != pg.IsHuge() {
			return nil, fmt.Errorf("vm: pte at vpn %d huge bit disagrees with page %d", vpn, pg.VPN)
		}
		if e&pteTouched != 0 && !pg.Touched(int(off)) {
			return nil, fmt.Errorf("vm: pte at vpn %d touched bit set but page %d subpage %d is clean",
				vpn, pg.VPN, off)
		}
		if slots[pg.arIdx] == 0 {
			// First sighting: account frames and check uniqueness.
			if pg.Tier < 0 || int(pg.Tier) >= len(as.tiers) {
				return nil, fmt.Errorf("vm: page %d on tier %v", pg.VPN, pg.Tier)
			}
			if pg.IsHuge() {
				b := pg.VPN / tier.SubPages
				if b >= uint64(len(as.bt)) || as.bt[b]&^pteSeen != pteFor(pg) {
					return nil, fmt.Errorf("vm: huge page %d missing or stale in the block table", pg.VPN)
				}
			}
			units[pg.Tier] += pg.Units()
			// A page lies within one block; once every page is known to
			// map exactly its own slots (checked below), these sums are
			// the blocks' mapped slots.
			blocks[pg.VPN/tier.SubPages] += uint16(pg.Units())
			if err := a.claim(pg); err != nil {
				return nil, err
			}
		}
		slots[pg.arIdx]++
		if !pg.IsHuge() {
			continue
		}
		// A huge mapping's slots mirror its block entry's tier and seen
		// bit; TouchFast reads either.
		if (e^as.bt[vpn/tier.SubPages])&(pteTierMask|pteSeen) != 0 {
			return nil, fmt.Errorf("vm: pte at vpn %d disagrees with block table entry %d on tier or seen",
				vpn, vpn/tier.SubPages)
		}
		// The page's next slots that repeat this one apart from the
		// touched bit pass every check above but the touched-bit one:
		// check that alone and count them. The first slot that differs
		// takes the per-slot path, which reports it as the reference
		// audit does.
		n, end := vpn+1, min(int(pg.VPN)+tier.SubPages, len(pt))
		for n < end && pt[n]&^pteTouched == e&^pteTouched &&
			(pt[n]&pteTouched == 0 || pg.Touched(n-int(pg.VPN))) {
			n++
		}
		slots[pg.arIdx] += uint32(n - vpn - 1)
		vpn = n - 1
	}
	for i, n := range slots {
		if n == 0 {
			continue
		}
		if pg := as.pageAt(pte(i + 1)); uint64(n) != pg.Units() {
			return nil, fmt.Errorf("vm: page %d maps %d of its %d slots", pg.VPN, n, pg.Units())
		}
	}
	if len(as.bn) != len(as.bt) {
		return nil, fmt.Errorf("vm: %d block slot counts for %d blocks", len(as.bn), len(as.bt))
	}
	for b, n := range blocks {
		if as.bn[b] != n {
			return nil, fmt.Errorf("vm: block %d counts %d mapped slots but %d are mapped", b, as.bn[b], n)
		}
	}
	// Growing a table within its capacity re-exposes entries without
	// clearing them, so every entry past the length must be zero.
	if i := dirtyTail(as.pt); i >= 0 {
		return nil, fmt.Errorf("vm: page table entry %d past the table end is not zero", i)
	}
	if i := dirtyTail(as.bt); i >= 0 {
		return nil, fmt.Errorf("vm: block table entry %d past the table end is not zero", i)
	}
	if i := dirtyTail(as.bn); i >= 0 {
		return nil, fmt.Errorf("vm: block slot count %d past the table end is not zero", i)
	}
	// Reverse direction: every non-zero block-table entry must describe
	// a live huge mapping the pt walk actually saw (a stale entry would
	// serve reads for a split or freed block).
	for b, e := range as.bt {
		if e == 0 {
			continue
		}
		base := uint64(b) * tier.SubPages
		if e&pteHuge == 0 || base >= uint64(len(as.pt)) || as.pt[base]&^pteTouched != e {
			return nil, fmt.Errorf("vm: block table entry %d is stale (pte %#x)", b, e)
		}
	}
	var total uint64
	for _, u := range units {
		total += u
	}
	if total != as.residentUnits {
		return nil, fmt.Errorf("vm: space %d counts %d resident units but %d are mapped",
			as.Tenant, as.residentUnits, total)
	}
	if units[tier.FastTier] != as.fastUnits {
		return nil, fmt.Errorf("vm: space %d counts %d fast units but %d are mapped fast",
			as.Tenant, as.fastUnits, units[tier.FastTier])
	}
	return units, nil
}

// dirtyTail returns the index of the first non-zero entry of s past its
// length, within its capacity, or -1 when that tail is all zero.
func dirtyTail[E pte | uint16](s []E) int {
	for i, e := range s[len(s):cap(s)] {
		if e != 0 {
			return len(s) + i
		}
	}
	return -1
}

// Audit verifies the frame-accounting invariants of the memory's
// address spaces over its tier chain — the properties a migration
// abort, split or collapse must never break:
//
//   - no dead page is reachable through a page table;
//   - every live page maps exactly its own VPN range in its own space
//     (huge pages cover all 512 slots, base pages exactly one);
//   - no physical frame backs two pages of any spaces (no
//     double-mapping), and none lies beyond its tier's capacity;
//   - every tier's allocated-frame count equals the sum of all spaces'
//     live page sizes on it (no frame lost across any hop or by an
//     aborted transaction, none leaked).
//
// It is O(address spaces + tier capacity) and makes the same few slice
// allocations per call however many pages are mapped (one bit per tier
// frame, one counter per page record): a test-time invariant checker
// (the conformance probes run it every few thousand accesses), not a
// production path.
func (mem *Memory) Audit() error {
	a := newFrameAudit(mem)
	units := make([]uint64, len(mem.tiers))
	for _, as := range mem.spaces {
		us, err := as.auditMapped(&a)
		if err != nil {
			return fmt.Errorf("space %d: %w", as.Tenant, err)
		}
		for i, u := range us {
			units[i] += u
		}
	}
	for id, t := range mem.tiers {
		if got := t.UsedFrames(); got != units[id] {
			return fmt.Errorf("vm: %s tier has %d frames allocated but %d mapped across %d spaces",
				tier.ID(id), got, units[id], len(mem.spaces))
		}
	}
	return nil
}
