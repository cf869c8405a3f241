// Package tlb models the processor's translation lookaside buffer. The
// simulator charges a page-walk latency on every TLB miss; huge pages
// both increase reach (one entry covers 512 base pages) and walk one
// fewer page-table level, which is exactly the address-translation
// benefit MEMTIS trades against fast-tier waste when deciding page size.
package tlb

import (
	"memtis/internal/fastmod"
	"memtis/internal/obs"
)

// Walk latencies in nanoseconds. A 4KB translation walks four page-table
// levels; a 2MB translation stops at the PMD (three levels). The values
// assume partial page-walk caching, in line with measured walk costs on
// recent Xeons.
const (
	Walk4KNS = 96
	Walk2MNS = 70
)

const ways = 8 // associativity of each sub-TLB

// set is one associativity set: its valid tags in recency order, most
// recent first, with zero (invalid) tags filling the tail. Eight 8-byte
// tags make the set exactly one 64-byte cache line, so a probe pulls
// one line however many tenants spread their lookups across the sets.
// Tag 0 is reserved as "invalid" (virtual page numbers are stored +1).
//
// Recency order is the LRU state: a hit moves its tag to the front, a
// miss shifts every tag back one slot and drops the last, which is the
// least recently used tag of a full set and an invalid tag otherwise.
// That is the hit/miss sequence of true LRU over per-entry stamps with
// the empty slots filled first, at half the footprint, and with no
// clock to wrap.
type set struct {
	tag [ways]uint64
}

// subTLB is an 8-way set-associative TLB with true-LRU replacement
// within each set.
type subTLB struct {
	sets    []set
	nSets   uint64
	fm      fastmod.M // vpn % nSets: a mask for powers of two, else an exact reciprocal
	walkNS  uint64    // page-walk cost charged on a miss
	lookups uint64
	misses  uint64
}

// newSubTLB builds a sub-TLB that honours the configured entry count
// exactly: the set count is entries/ways rounded UP, never down.
// (Rounding down silently modelled a 1024-entry TLB when 1536 was
// configured: 1536/8 = 192 sets truncated to the 128-set power of two.)
// Set indexing goes through fastmod, so the hot path never executes a
// hardware divide: space-tagged VPNs carry the tenant tag in the high
// bits, so any 32-bit-only shortcut would fall through to a divide on
// every multi-tenant lookup.
func newSubTLB(entries int, walkNS uint64) subTLB {
	nSets := (entries + ways - 1) / ways
	if nSets < 1 {
		nSets = 1
	}
	return subTLB{
		sets:   make([]set, nSets),
		nSets:  uint64(nSets),
		fm:     fastmod.New(uint64(nSets)),
		walkNS: walkNS,
	}
}

// index maps vpn to its set. Keeping vpn%nSets semantics (rather than a
// hash) preserves the low-bit set indexing of real TLBs: consecutive
// pages land in consecutive sets.
func (t *subTLB) index(vpn uint64) uint64 {
	return t.fm.Mod(vpn)
}

// lookup probes for vpn, inserting it on a miss, and returns the
// page-walk cost charged (0 on a hit). One pass searches and shifts:
// vpn's tag takes the front slot, and every tag ahead of the match
// moves back one slot into the gap, so on a miss all of them move and
// the last drops out. The shift is a loop, not a copy: over at most
// seven words a copy compiles to a runtime.memmove call that costs
// more than it moves, and a search loop ahead of the shift would add a
// second hard-to-predict exit.
func (t *subTLB) lookup(vpn uint64) uint64 {
	t.lookups++
	s := &t.sets[t.index(vpn)]
	tag := vpn + 1
	prev := s.tag[0]
	if prev == tag {
		return 0
	}
	s.tag[0] = tag
	for i := 1; i < ways; i++ {
		cur := s.tag[i]
		s.tag[i] = prev
		if cur == tag {
			return 0
		}
		prev = cur
	}
	t.misses++
	return t.walkNS
}

// invalidate drops vpn if present (TLB shootdown of one mapping): the
// less recent tags close the gap and the tail slot becomes invalid, so
// the set keeps its valid tags first.
func (t *subTLB) invalidate(vpn uint64) {
	s := &t.sets[t.index(vpn)]
	tag := vpn + 1
	for i := 0; i < ways; i++ {
		if s.tag[i] == tag {
			for ; i < ways-1; i++ {
				s.tag[i] = s.tag[i+1]
			}
			s.tag[ways-1] = 0
			return
		}
	}
}

// Config sizes the two sub-TLBs. Defaults follow a Cascade Lake-style
// second-level TLB: 1536 shared 4K entries, 1536 2M entries being overly
// generous, so we use a 16-entry L1-style 2M complement of 1024.
type Config struct {
	Entries4K int
	Entries2M int
}

// DefaultConfig returns the TLB geometry used throughout the evaluation.
func DefaultConfig() Config { return Config{Entries4K: 1536, Entries2M: 1024} }

// TLB models split 4K/2M translation caches. The sub-TLBs are held by
// value so Access reaches their sets with one indirection, not two.
type TLB struct {
	l4k subTLB
	l2m subTLB

	// Trace receives invalidate/flush events. The per-access lookup
	// path (Access) never emits — only the rare maintenance operations
	// do — so tracing does not perturb translation costs.
	Trace *obs.Tracer
}

// New builds a TLB with the given geometry; zero fields take defaults.
func New(cfg Config) *TLB {
	def := DefaultConfig()
	if cfg.Entries4K <= 0 {
		cfg.Entries4K = def.Entries4K
	}
	if cfg.Entries2M <= 0 {
		cfg.Entries2M = def.Entries2M
	}
	return &TLB{l4k: newSubTLB(cfg.Entries4K, Walk4KNS), l2m: newSubTLB(cfg.Entries2M, Walk2MNS)}
}

// Access translates the access to the base-page number vpn, mapped by a
// huge page or a base page, and returns the translation cost in
// nanoseconds (0 on a TLB hit). Single lookup call site and the walk
// cost stored in the sub-TLB itself: this keeps Access within the
// inlining budget, so the simulator's hot loop pays one call here, not
// two.
func (t *TLB) Access(vpn uint64, huge bool) uint64 {
	sub := &t.l4k
	if huge {
		sub = &t.l2m
		vpn >>= 9
	}
	return sub.lookup(vpn)
}

// Invalidate removes the translation covering vpn (huge selects the 2M
// sub-TLB). Used on migration, split and collapse.
func (t *TLB) Invalidate(vpn uint64, huge bool) {
	t.Trace.Emit(obs.EvTLBInvalidate, vpn, huge, 0, 0)
	if huge {
		t.l2m.invalidate(vpn / 512)
		return
	}
	t.l4k.invalidate(vpn)
}

// Flush empties both sub-TLBs.
func (t *TLB) Flush() {
	t.Trace.Emit(obs.EvTLBFlush, 0, false, 0, 0)
	for i := range t.l4k.sets {
		t.l4k.sets[i] = set{}
	}
	for i := range t.l2m.sets {
		t.l2m.sets[i] = set{}
	}
}

// Stats reports lookup and miss counts per sub-TLB.
type Stats struct {
	Lookups4K, Misses4K uint64
	Lookups2M, Misses2M uint64
}

// Stats returns a snapshot of the TLB counters.
func (t *TLB) Stats() Stats {
	return Stats{
		Lookups4K: t.l4k.lookups, Misses4K: t.l4k.misses,
		Lookups2M: t.l2m.lookups, Misses2M: t.l2m.misses,
	}
}

// MissRatio returns overall misses/lookups across both sub-TLBs.
func (s Stats) MissRatio() float64 {
	l := s.Lookups4K + s.Lookups2M
	if l == 0 {
		return 0
	}
	return float64(s.Misses4K+s.Misses2M) / float64(l)
}
