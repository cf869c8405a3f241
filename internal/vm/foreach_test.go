// Regression tests for the iteration-order and cursor-walk guarantees
// that the incremental classification structures (DESIGN.md §8) and the
// byte-identical-across-workers trace tests rely on.
package vm

import (
	"math/rand"
	"testing"

	"memtis/internal/tier"
)

// TestForEachPageDeterministicOrder pins the documented contract:
// ForEachPage visits live pages in strictly ascending VPN order, each
// exactly once, regardless of fault order and split/collapse history.
func TestForEachPageDeterministicOrder(t *testing.T) {
	as := newAS(t, 16, 64, true)
	r := as.Reserve(8 * tier.HugePageSize)

	// Fault in a shuffled mix of huge and base pages.
	rng := rand.New(rand.NewSource(42))
	order := rng.Perm(int(r.Pages))
	for _, off := range order {
		as.Touch(r.BaseVPN+uint64(off), false)
	}
	// Split one huge page so iteration crosses a replaced region.
	var firstHuge *Page
	as.ForEachPage(func(p *Page) {
		if firstHuge == nil && p.IsHuge() {
			firstHuge = p
		}
	})
	if firstHuge == nil {
		t.Fatal("no huge page faulted in")
	}
	for i := uint64(0); i < 64; i++ {
		as.Touch(firstHuge.VPN+i, true)
	}
	if subs, _ := as.Split(firstHuge, func(int) tier.ID { return tier.NoTier }); len(subs) == 0 {
		t.Fatal("split produced no subpages")
	}

	collect := func() []uint64 {
		var vpns []uint64
		as.ForEachPage(func(p *Page) { vpns = append(vpns, p.VPN) })
		return vpns
	}
	got := collect()
	if len(got) != as.LivePages() {
		t.Fatalf("visited %d pages, LivePages = %d", len(got), as.LivePages())
	}
	seen := make(map[uint64]bool, len(got))
	for i, v := range got {
		if seen[v] {
			t.Fatalf("page %d visited twice", v)
		}
		seen[v] = true
		if i > 0 && got[i-1] >= v {
			t.Fatalf("iteration not strictly ascending: vpn %d after %d", v, got[i-1])
		}
	}
	// Re-running yields the identical sequence.
	again := collect()
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("iteration order unstable at index %d: %d vs %d", i, got[i], again[i])
		}
	}
}

// TestForEachPageFromCoversAllPages checks the cursor walker's core
// property: chaining calls with the returned cursor visits every live
// page exactly once per full cycle, for any window size.
func TestForEachPageFromCoversAllPages(t *testing.T) {
	as := newAS(t, 16, 64, true)
	r := as.Reserve(6 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i += 3 { // sparse: every third slot
		as.Touch(r.BaseVPN+i, false)
	}
	live := as.LivePages()

	for _, window := range []int{1, 7, 64, 100000} {
		visits := make(map[uint64]int)
		cursor := uint64(0)
		// One full cycle: keep walking until the total visit count
		// reaches the live-page count, bounded to catch livelock.
		total := 0
		for steps := 0; total < live; steps++ {
			if steps > live+16 {
				t.Fatalf("window %d: walker failed to cover %d pages (visited %d)", window, live, total)
			}
			before := total
			cursor = as.ForEachPageFrom(cursor, window, func(p *Page) {
				visits[p.VPN]++
				total++
			})
			if total == before && window > 0 {
				t.Fatalf("window %d: walker made no progress at cursor %d", window, cursor)
			}
		}
		for vpn, n := range visits {
			if n != 1 {
				t.Fatalf("window %d: page %d visited %d times in one cycle", window, vpn, n)
			}
		}
		if len(visits) != live {
			t.Fatalf("window %d: covered %d pages, want %d", window, len(visits), live)
		}
	}
}

// TestForEachPageFromResumeMidHugePage checks the documented layout-
// change behaviour: a cursor that lands inside a huge page (because the
// region was collapsed between calls) visits that page once and resumes
// past it, never looping on the same page.
func TestForEachPageFromResumeMidHugePage(t *testing.T) {
	as := newAS(t, 16, 64, true)
	r := as.Reserve(2 * tier.HugePageSize)
	as.Touch(r.BaseVPN, false)
	as.Touch(r.BaseVPN+tier.SubPages, false)

	// Cursor pointing mid-way into the first huge page.
	cursor := r.BaseVPN + 100
	var got []uint64
	cursor = as.ForEachPageFrom(cursor, 1, func(p *Page) { got = append(got, p.VPN) })
	if len(got) != 1 || got[0] != r.BaseVPN {
		t.Fatalf("mid-page cursor visited %v, want [%d]", got, r.BaseVPN)
	}
	if cursor != r.BaseVPN+tier.SubPages {
		t.Fatalf("cursor resumed at %d, want next page %d", cursor, r.BaseVPN+tier.SubPages)
	}
}

// TestForEachPageAllocFree pins the walk's allocation contract
// directly: after a first walk, further walks allocate nothing, and a
// nested walk from inside the callback still sees every page exactly
// once (the walk keeps no per-space state a nested one could clobber).
func TestForEachPageAllocFree(t *testing.T) {
	as := newAS(t, 16, 64, true)
	r := as.Reserve(4 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i += 2 {
		as.Touch(r.BaseVPN+i, false)
	}
	live := as.LivePages()
	as.ForEachPage(func(p *Page) {}) // first walk; steady state from here on
	if avg := testing.AllocsPerRun(20, func() {
		n := 0
		as.ForEachPage(func(p *Page) { n++ })
		if n != live {
			t.Fatalf("walk visited %d pages, want %d", n, live)
		}
	}); avg != 0 {
		t.Fatalf("steady-state ForEachPage allocates %.1f objects per walk, want 0", avg)
	}
	outer, inner := 0, 0
	as.ForEachPage(func(p *Page) {
		outer++
		if outer == 1 {
			as.ForEachPage(func(q *Page) { inner++ })
		}
	})
	if outer != live || inner != live {
		t.Fatalf("nested walk visited outer=%d inner=%d, want %d each", outer, inner, live)
	}
}

// TestForEachPageFromShrinkResume pins the cursor-clamp contract when
// the table shrinks between calls: Free of a trailing region trims the
// page table, and a cursor handed out before the trim must fold back
// into range deterministically (cursor mod table length) — not snap to
// 0, which would restart every in-flight background sweep at the low
// VPNs and starve the high end of cooling coverage.
func TestForEachPageFromShrinkResume(t *testing.T) {
	as := newAS(t, 16, 64, true)
	low := as.Reserve(2 * tier.HugePageSize)
	high := as.Reserve(2 * tier.HugePageSize)
	for i := uint64(0); i < low.Pages; i++ {
		as.Touch(low.BaseVPN+i, false)
	}
	for i := uint64(0); i < high.Pages; i++ {
		as.Touch(high.BaseVPN+i, false)
	}

	// Walk into the high region, then free it: the trailing trim
	// shrinks the table below the cursor.
	cursor := as.ForEachPageFrom(high.BaseVPN, 1, func(p *Page) {})
	as.Free(high)
	if got, want := uint64(len(as.pt)), low.BaseVPN+low.Pages; got != want {
		t.Fatalf("trailing free left table at %d entries, want %d", got, want)
	}
	if cursor < uint64(len(as.pt)) {
		t.Fatalf("test stale-cursor setup broken: cursor %d inside table %d", cursor, len(as.pt))
	}

	// The stale cursor must resume at cursor mod len, deterministically:
	// two identical walks from it visit the same first page, and a full
	// cycle still covers every surviving page exactly once.
	first := func() uint64 {
		var v uint64 = ^uint64(0)
		as.ForEachPageFrom(cursor, 1, func(p *Page) { v = p.VPN })
		return v
	}
	f1, f2 := first(), first()
	if f1 != f2 {
		t.Fatalf("stale cursor resumed non-deterministically: %d vs %d", f1, f2)
	}
	if want := as.Lookup(cursor % uint64(len(as.pt))); want == nil || f1 < want.VPN {
		t.Fatalf("stale cursor resumed at %d, before its folded position %d", f1, cursor%uint64(len(as.pt)))
	}
	live := as.LivePages()
	visits := make(map[uint64]int)
	c, total := cursor, 0
	for steps := 0; total < live; steps++ {
		if steps > live+16 {
			t.Fatalf("post-shrink walker failed to cover %d pages (visited %d)", live, total)
		}
		c = as.ForEachPageFrom(c, 3, func(p *Page) {
			visits[p.VPN]++
			total++
		})
	}
	for vpn, n := range visits {
		if n != 1 {
			t.Fatalf("post-shrink cycle visited page %d %d times", vpn, n)
		}
	}
	if len(visits) != live {
		t.Fatalf("post-shrink cycle covered %d pages, want %d", len(visits), live)
	}
}

// TestForEachPageFromEmptySpace: no live pages terminates immediately.
func TestForEachPageFromEmptySpace(t *testing.T) {
	as := newAS(t, 4, 16, true)
	as.Reserve(tier.HugePageSize) // reserved but never faulted
	calls := 0
	as.ForEachPageFrom(0, 100, func(p *Page) { calls++ })
	if calls != 0 {
		t.Fatalf("visited %d pages in an empty address space", calls)
	}
}
