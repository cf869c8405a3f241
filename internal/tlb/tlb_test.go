package tlb

import (
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	tl := New(Config{Entries4K: 64, Entries2M: 16})
	if c := tl.Access(100, false); c != Walk4KNS {
		t.Fatalf("first access cost %d, want %d", c, Walk4KNS)
	}
	if c := tl.Access(100, false); c != 0 {
		t.Fatalf("second access cost %d, want 0", c)
	}
}

func TestHugeWalkIsCheaper(t *testing.T) {
	if Walk2MNS >= Walk4KNS {
		t.Fatal("2M walks must be cheaper than 4K walks")
	}
	tl := New(Config{})
	if c := tl.Access(5000, true); c != Walk2MNS {
		t.Fatalf("huge miss cost %d, want %d", c, Walk2MNS)
	}
}

func TestHugeReach(t *testing.T) {
	// One 2M entry covers all 512 subpages.
	tl := New(Config{Entries4K: 64, Entries2M: 16})
	base := uint64(512 * 7)
	tl.Access(base, true)
	for i := uint64(1); i < 512; i++ {
		if c := tl.Access(base+i, true); c != 0 {
			t.Fatalf("subpage %d missed despite shared 2M entry", i)
		}
	}
}

func TestEviction(t *testing.T) {
	tl := New(Config{Entries4K: 64, Entries2M: 16})
	// 64 entries = 8 sets x 8 ways. Fill one set with 9 distinct tags:
	// vpns congruent mod 8 map to the same set.
	for i := uint64(0); i < 9; i++ {
		tl.Access(i*8, false)
	}
	// The first entry must have been evicted (LRU).
	if c := tl.Access(0, false); c != Walk4KNS {
		t.Fatal("expected eviction of LRU entry")
	}
}

func TestInvalidate(t *testing.T) {
	tl := New(Config{})
	tl.Access(42, false)
	tl.Invalidate(42, false)
	if c := tl.Access(42, false); c != Walk4KNS {
		t.Fatal("invalidate did not remove 4K entry")
	}
	tl.Access(512*3, true)
	tl.Invalidate(512*3+7, true) // any subpage selects the 2M entry
	if c := tl.Access(512*3, true); c != Walk2MNS {
		t.Fatal("invalidate did not remove 2M entry")
	}
}

func TestFlush(t *testing.T) {
	tl := New(Config{})
	tl.Access(1, false)
	tl.Access(512, true)
	tl.Flush()
	if tl.Access(1, false) == 0 || tl.Access(512, true) == 0 {
		t.Fatal("flush did not clear entries")
	}
}

func TestStats(t *testing.T) {
	tl := New(Config{})
	tl.Access(1, false)
	tl.Access(1, false)
	tl.Access(512, true)
	s := tl.Stats()
	if s.Lookups4K != 2 || s.Misses4K != 1 || s.Lookups2M != 1 || s.Misses2M != 1 {
		t.Fatalf("stats: %+v", s)
	}
	want := 2.0 / 3.0
	if got := s.MissRatio(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("MissRatio = %v, want %v", got, want)
	}
	if (Stats{}).MissRatio() != 0 {
		t.Fatal("empty MissRatio should be 0")
	}
}

func TestDefaultsApplied(t *testing.T) {
	tl := New(Config{})
	// Sequential walk over more 4K pages than the default TLB holds
	// must produce misses on re-walk.
	n := uint64(DefaultConfig().Entries4K) * 4
	for i := uint64(0); i < n; i++ {
		tl.Access(i, false)
	}
	missBefore := tl.Stats().Misses4K
	for i := uint64(0); i < n; i++ {
		tl.Access(i, false)
	}
	if tl.Stats().Misses4K == missBefore {
		t.Fatal("expected capacity misses on 4x-oversized sweep")
	}
}

// TestConfiguredCapacityExact: the effective capacity equals the
// configured entry count. 1536 entries = 192 sets x 8 ways — not a
// power of two; the seed rounded the set count down to 128 and
// silently modelled a 1024-entry TLB. A sequential fill of exactly
// Entries4K pages places exactly `ways` tags in every set, so a full
// re-probe must hit on every one.
func TestConfiguredCapacityExact(t *testing.T) {
	tl := New(Config{Entries4K: 1536, Entries2M: 16})
	n := uint64(1536)
	for i := uint64(0); i < n; i++ {
		tl.Access(i, false)
	}
	for i := uint64(0); i < n; i++ {
		if c := tl.Access(i, false); c != 0 {
			t.Fatalf("vpn %d missed on re-probe: configured capacity not honoured", i)
		}
	}
	if got := tl.Stats().Misses4K; got != n {
		t.Fatalf("misses = %d, want %d (cold fill only)", got, n)
	}
}

// TestSetCountRoundsUp: entry counts that don't divide evenly by the
// associativity round the set count up, never down.
func TestSetCountRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		entries int
		nSets   uint64
	}{{1536, 192}, {1537, 193}, {1024, 128}, {1, 1}, {0, 1}} {
		if st := newSubTLB(tc.entries, Walk4KNS); st.nSets != tc.nSets {
			t.Fatalf("entries=%d: nSets=%d, want %d", tc.entries, st.nSets, tc.nSets)
		}
	}
}

// TestIndexFastmod: set indexing keeps vpn%nSets semantics for every
// geometry — masked power-of-two, fastmod, and the >=2^32 guard path.
func TestIndexFastmod(t *testing.T) {
	for _, entries := range []int{8, 24, 40, 1536, 1544} {
		st := newSubTLB(entries, Walk4KNS)
		for _, vpn := range []uint64{0, 1, 191, 192, 193, 12345, 1<<32 - 1, 1 << 32, 1<<33 + 7} {
			if got, want := st.index(vpn), vpn%st.nSets; got != want {
				t.Fatalf("entries=%d vpn=%d: index=%d, want %d", entries, vpn, got, want)
			}
		}
	}
}

// TestLRUStampSurvives32BitWrap: LRU order holds once the lookup count
// passes 2^32. With the historical 32-bit stamps, entries touched after
// lookup 2^32 looked older than everything else and became permanent
// eviction victims; recency-ordered sets keep no clock at all, and this
// pins that no count-dependent order comes back.
func TestLRUStampSurvives32BitWrap(t *testing.T) {
	st := newSubTLB(64, Walk4KNS) // 8 sets x 8 ways; vpns ≡ 0 (mod 8) share set 0
	st.lookups = 1<<32 - 4        // stamps cross 2^32 mid-fill
	for i := uint64(0); i < 8; i++ {
		st.lookup(i * 8)
	}
	// A 9th tag must evict the oldest entry (vpn 0), not one whose
	// stamp a 32-bit clock would have truncated to ~0.
	st.lookup(8 * 8)
	for i := uint64(1); i <= 8; i++ {
		if st.lookup(i*8) != 0 {
			t.Fatalf("vpn %d evicted: LRU order corrupted across the 2^32 boundary", i*8)
		}
	}
	if st.lookup(0) == 0 {
		t.Fatal("oldest entry should have been the eviction victim")
	}
}

// TestQuickRepeatIsHit: immediately repeating any access is always a hit.
func TestQuickRepeatIsHit(t *testing.T) {
	tl := New(Config{})
	prop := func(vpn uint64, huge bool) bool {
		vpn %= 1 << 30
		tl.Access(vpn, huge)
		return tl.Access(vpn, huge) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMissesMonotonic: miss counters never exceed lookups.
func TestQuickMissesMonotonic(t *testing.T) {
	prop := func(vpns []uint16) bool {
		tl := New(Config{Entries4K: 32, Entries2M: 8})
		for _, v := range vpns {
			tl.Access(uint64(v), v%3 == 0)
		}
		s := tl.Stats()
		return s.Misses4K <= s.Lookups4K && s.Misses2M <= s.Lookups2M &&
			s.Lookups4K+s.Lookups2M == uint64(len(vpns))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
