package vm

import (
	"math/rand"
	"slices"
	"testing"

	"memtis/internal/tier"
)

// refTrimLen is Free's trailing trim before the per-block slot counts:
// it drops trailing unmapped slots one at a time and returns the length
// the table keeps.
func refTrimLen(pt []pte) int {
	n := len(pt)
	for n > 0 && pt[n-1] == 0 {
		n--
	}
	return n
}

// refForEachPageFrom is ForEachPageFrom before the per-block slot
// counts: it steps over unmapped slots one at a time.
func (as *AddressSpace) refForEachPageFrom(cursor uint64, max int, fn func(p *Page)) uint64 {
	n := uint64(len(as.pt))
	if n == 0 || max <= 0 {
		return 0
	}
	if cursor >= n {
		cursor %= n
	}
	visited := 0
	for scanned := uint64(0); scanned < n && visited < max; {
		e := as.pt[cursor]
		step := uint64(1)
		if e != 0 {
			pg := as.pageAt(e)
			fn(pg)
			visited++
			step = pg.VPN + pg.Units() - cursor
		}
		scanned += step
		cursor += step
		if cursor >= n {
			cursor = 0
		}
	}
	return cursor
}

// refForEachPage is ForEachPage before the shared walk loop: it
// snapshots the live pages slot by slot, then visits those the callback
// has not killed meanwhile.
func (as *AddressSpace) refForEachPage(fn func(p *Page)) {
	var snap []*Page
	for vpn, n := uint64(0), uint64(len(as.pt)); vpn < n; {
		e := as.pt[vpn]
		if e == 0 {
			vpn++
			continue
		}
		pg := as.pageAt(e)
		snap = append(snap, pg)
		vpn = pg.VPN + pg.Units()
	}
	for _, pg := range snap {
		if !pg.dead {
			fn(pg)
		}
	}
}

// refForEachPageSlice is ForEachPageSlice before the shared walk loop:
// it steps over unmapped slots one at a time.
func (as *AddressSpace) refForEachPageSlice(cursor uint64, max int, fn func(p *Page)) (next uint64, done bool) {
	n := uint64(len(as.pt))
	if cursor >= n || max <= 0 {
		return 0, true
	}
	visited := 0
	for cursor < n && visited < max {
		e := as.pt[cursor]
		step := uint64(1)
		if e != 0 {
			pg := as.pageAt(e)
			fn(pg)
			visited++
			step = pg.VPN + pg.Units() - cursor
		}
		cursor += step
	}
	return cursor, cursor >= n
}

// TestWalksMatchSlotBySlotReference runs random Reserve/Touch/Split/Free
// churn — tail frees that trim the table across a growing unmapped gap,
// middle frees that leave holes — and holds the block-skipping trim and
// the three walkers to their slot-by-slot references: the same table
// length after every Free, the same full-table visit order, and from
// fresh, carried, random and stale cursors under each budget the same
// visit order and returned cursor. Audit checks the per-block counts
// and the zero tails after every step.
func TestWalksMatchSlotBySlotReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	as := newAS(t, 8, 64, true)
	var live []Region
	cursor := uint64(0)
	checkWalks := func(step int) {
		n := uint64(len(as.pt))
		var got, want []uint64
		as.ForEachPage(func(p *Page) { got = append(got, p.VPN) })
		as.refForEachPage(func(p *Page) { want = append(want, p.VPN) })
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: ForEachPage on %d slots visited %v; reference %v", step, n, got, want)
		}
		cursors := []uint64{0, cursor, n + rng.Uint64()%(2*n+1)}
		if n > 0 {
			cursors = append(cursors, rng.Uint64()%n)
		}
		for _, c := range cursors {
			for _, max := range []int{0, 1, 40, 1 << 20} {
				got, want = got[:0], want[:0]
				gc := as.ForEachPageFrom(c, max, func(p *Page) { got = append(got, p.VPN) })
				wc := as.refForEachPageFrom(c, max, func(p *Page) { want = append(want, p.VPN) })
				if gc != wc || !slices.Equal(got, want) {
					t.Fatalf("step %d: ForEachPageFrom(%d, %d) on %d slots visited %v and returned %d; reference %v, %d",
						step, c, max, n, got, gc, want, wc)
				}
				got, want = got[:0], want[:0]
				gn, gd := as.ForEachPageSlice(c, max, func(p *Page) { got = append(got, p.VPN) })
				wn, wd := as.refForEachPageSlice(c, max, func(p *Page) { want = append(want, p.VPN) })
				if gn != wn || gd != wd || !slices.Equal(got, want) {
					t.Fatalf("step %d: ForEachPageSlice(%d, %d) on %d slots visited %v and returned %d, %v; reference %v, %d, %v",
						step, c, max, n, got, gn, gd, want, wn, wd)
				}
			}
		}
		cursor = as.ForEachPageFrom(cursor, 1+rng.Intn(8), func(*Page) {})
	}
	var frees, gapFrees, splits int
	for step := 0; step < 1000; step++ {
		switch r := rng.Intn(20); {
		case r < 3 || len(live) == 0:
			// Short buffers and whole huge blocks.
			bytes := uint64(1+rng.Intn(40)) * tier.BasePageSize
			if rng.Intn(3) == 0 {
				bytes = uint64(1+rng.Intn(3)) * tier.HugePageSize
			}
			live = append(live, as.Reserve(bytes))
		case r < 13:
			reg := live[rng.Intn(len(live))]
			for k := rng.Intn(64); k >= 0; k-- {
				as.Touch(reg.BaseVPN+rng.Uint64()%reg.Pages, rng.Intn(3) == 0)
			}
		case r < 16:
			reg := live[rng.Intn(len(live))]
			if pg := as.Lookup(reg.BaseVPN + rng.Uint64()%reg.Pages); pg != nil && pg.IsHuge() {
				as.Split(pg, func(int) tier.ID { return tier.NoTier })
				splits++
			}
		default:
			// Mostly the newest region, a tail free while older ones
			// live; otherwise one from the middle.
			i := len(live) - 1
			if rng.Intn(3) == 0 {
				i = rng.Intn(len(live))
			}
			reg := live[i]
			live = slices.Delete(live, i, i+1)
			old := len(as.pt)
			as.Free(reg)
			if want := refTrimLen(as.pt[:old]); len(as.pt) != want {
				t.Fatalf("step %d: Free(%+v) trimmed the table from %d to %d slots, reference %d",
					step, reg, old, len(as.pt), want)
			}
			frees++
			if old-len(as.pt) > int(reg.Pages)+2*tier.SubPages {
				gapFrees++ // the trim crossed empty blocks below reg
			}
		}
		if err := as.Audit(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkWalks(step)
	}
	t.Logf("%d frees (%d trimming across empty blocks), %d splits", frees, gapFrees, splits)
	if frees < 100 || gapFrees < 10 || splits < 10 {
		t.Fatalf("churn too narrow: %d frees (%d trimming across empty blocks), %d splits", frees, gapFrees, splits)
	}
}
