package tlb

import (
	"math/rand"
	"testing"
)

// refEntry, refSet and refSubTLB are the stamp-LRU sub-TLB the
// recency-ordered sets replaced, kept as the reference they must match:
// every entry holds its tag and the lookup count of its last use, a hit
// restamps the entry, and a miss overwrites the entry with the least
// stamp (an invalid entry, stamp 0, before any valid one). Set indexing
// is a plain %, so the reference shares no code with the model.
type refEntry struct {
	tag, used uint64
}

type refSet struct {
	e [ways]refEntry
}

type refSubTLB struct {
	sets    []refSet
	walkNS  uint64
	lookups uint64
	misses  uint64
}

func newRefSubTLB(entries int, walkNS uint64) refSubTLB {
	nSets := max((entries+ways-1)/ways, 1)
	return refSubTLB{sets: make([]refSet, nSets), walkNS: walkNS}
}

func (t *refSubTLB) set(vpn uint64) *refSet {
	return &t.sets[vpn%uint64(len(t.sets))]
}

func (t *refSubTLB) lookup(vpn uint64) uint64 {
	t.lookups++
	s, tag := t.set(vpn), vpn+1
	for i := range s.e {
		if s.e[i].tag == tag {
			s.e[i].used = t.lookups
			return 0
		}
	}
	t.misses++
	victim := 0
	for i := 1; i < ways; i++ {
		if s.e[i].used < s.e[victim].used {
			victim = i
		}
	}
	s.e[victim] = refEntry{tag: tag, used: t.lookups}
	return t.walkNS
}

func (t *refSubTLB) invalidate(vpn uint64) {
	s, tag := t.set(vpn), vpn+1
	for i := range s.e {
		if s.e[i].tag == tag {
			s.e[i] = refEntry{}
			return
		}
	}
}

// refTLB splits the reference like TLB splits the model.
type refTLB struct {
	l4k, l2m refSubTLB
}

func (t *refTLB) access(vpn uint64, huge bool) uint64 {
	if huge {
		return t.l2m.lookup(vpn >> 9)
	}
	return t.l4k.lookup(vpn)
}

func (t *refTLB) invalidate(vpn uint64, huge bool) {
	if huge {
		t.l2m.invalidate(vpn / 512)
		return
	}
	t.l4k.invalidate(vpn)
}

func (t *refTLB) flush() {
	clear(t.l4k.sets)
	clear(t.l2m.sets)
}

func (t *refTLB) stats() Stats {
	return Stats{
		Lookups4K: t.l4k.lookups, Misses4K: t.l4k.misses,
		Lookups2M: t.l2m.lookups, Misses2M: t.l2m.misses,
	}
}

// TestMatchesStampLRU drives the model and the stamp-LRU reference with
// the same random streams — space-tagged VPNs above 2^40, base and huge
// lookups, interleaved invalidations (mostly of recently used
// translations, so they hit) and flushes — and requires the same cost
// on every access and the same counters throughout, for the default
// geometry, power-of-two and other set counts, a single set and a
// single-entry TLB.
func TestMatchesStampLRU(t *testing.T) {
	for _, entries := range []int{1536, 1024, 64, 24, 8, 1} {
		rng := rand.New(rand.NewSource(int64(entries)))
		tl := New(Config{Entries4K: entries, Entries2M: entries})
		ref := &refTLB{l4k: newRefSubTLB(entries, Walk4KNS), l2m: newRefSubTLB(entries, Walk2MNS)}
		// The footprint spans about twice the capacity per sub-TLB, so
		// the stream mixes hits, capacity misses and conflict misses.
		span := uint64(2*entries + 16)
		type probe struct {
			vpn  uint64
			huge bool
		}
		var recent [16]probe
		var hits, misses int
		for op := 0; op < 200_000; op++ {
			switch r := rng.Intn(1000); {
			case r == 0:
				tl.Flush()
				ref.flush()
				continue
			case r < 20:
				// Mostly a recent translation (present), sometimes a
				// random one (usually absent: a no-op on both sides).
				a := recent[rng.Intn(len(recent))]
				if r < 5 {
					a.vpn = uint64(rng.Intn(8))<<40 | rng.Uint64()%(span*512)
				}
				tl.Invalidate(a.vpn, a.huge)
				ref.invalidate(a.vpn, a.huge)
				continue
			}
			huge := rng.Intn(4) == 0
			page := rng.Uint64() % span
			if huge {
				page = page*512 + rng.Uint64()%512
			}
			vpn := uint64(rng.Intn(8))<<40 | page
			recent[op%len(recent)] = probe{vpn, huge}
			got, want := tl.Access(vpn, huge), ref.access(vpn, huge)
			if got != want {
				t.Fatalf("entries=%d op %d: Access(%#x, huge=%v) = %d, reference %d",
					entries, op, vpn, huge, got, want)
			}
			if got == 0 {
				hits++
			} else {
				misses++
			}
			if op%997 == 0 && tl.Stats() != ref.stats() {
				t.Fatalf("entries=%d op %d: stats %+v, reference %+v", entries, op, tl.Stats(), ref.stats())
			}
		}
		if tl.Stats() != ref.stats() {
			t.Fatalf("entries=%d: stats %+v, reference %+v", entries, tl.Stats(), ref.stats())
		}
		if hits < 1000 || misses < 1000 {
			t.Fatalf("entries=%d: %d hits, %d misses; the stream does not exercise both", entries, hits, misses)
		}
	}
}
