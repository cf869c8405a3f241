package damon

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestMonitorInitialRegions(t *testing.T) {
	m := NewMonitor(Config{SampleIntervalNS: 1000, MinRegions: 10, MaxRegions: 100}, 0, 10000)
	if got := m.Regions(); got != 10 {
		t.Fatalf("initial regions = %d, want 10", got)
	}
	// Regions must tile [0, 10000) without gaps.
	snapless := m.regions
	var covered uint64
	for i, r := range snapless {
		if r.End <= r.Start {
			t.Fatalf("region %d empty", i)
		}
		if i > 0 && snapless[i-1].End != r.Start {
			t.Fatalf("gap before region %d", i)
		}
		covered += r.End - r.Start
	}
	if covered != 10000 {
		t.Fatalf("coverage = %d", covered)
	}
}

func TestRegionCountStaysBounded(t *testing.T) {
	m := NewMonitor(Config{SampleIntervalNS: 1000, MinRegions: 10, MaxRegions: 100, AggrSamples: 5}, 0, 1<<20)
	rng := rand.New(rand.NewSource(1))
	var now uint64
	for i := 0; i < 200_000; i++ {
		now += 50
		m.Observe(rng.Uint64()%(1<<20), now)
	}
	if n := m.Regions(); n < 10 || n > 100 {
		t.Fatalf("regions = %d, outside [10,100]", n)
	}
	if len(m.Snapshots()) == 0 {
		t.Fatal("no snapshots")
	}
}

func TestHotRegionDetected(t *testing.T) {
	const space = 1 << 16
	m := NewMonitor(Config{SampleIntervalNS: 2000, MinRegions: 16, MaxRegions: 64}, 0, space)
	rng := rand.New(rand.NewSource(2))
	var now uint64
	// 90% of accesses to the first 1/16 of the space.
	for i := 0; i < 400_000; i++ {
		now += 50
		var vpn uint64
		if rng.Intn(10) != 0 {
			vpn = rng.Uint64() % (space / 16)
		} else {
			vpn = rng.Uint64() % space
		}
		m.Observe(vpn, now)
	}
	m.Finish(now)
	snaps := m.Snapshots()
	if len(snaps) < 2 {
		t.Fatal("too few snapshots")
	}
	// Aggregate the hit density over all snapshots: the sampled-page
	// signal per window is sparse, but its sum must concentrate in the
	// hot sixteenth of the space.
	var hotNr, coldNr, hotN, coldN float64
	for _, snap := range snaps {
		for _, r := range snap.Regions {
			if r.Start < space/16 {
				hotNr += float64(r.NrAccesses)
				hotN++
			} else {
				coldNr += float64(r.NrAccesses)
				coldN++
			}
		}
	}
	if hotN == 0 || coldN == 0 {
		t.Fatal("degenerate region layout")
	}
	if hotNr/hotN <= 2*coldNr/coldN {
		t.Fatalf("hot region not distinguished: hot avg %.4f cold avg %.4f", hotNr/hotN, coldNr/coldN)
	}
}

func TestCPUOverheadScalesWithRegions(t *testing.T) {
	mkRun := func(minR, maxR int) float64 {
		m := NewMonitor(Config{SampleIntervalNS: 1000, MinRegions: minR, MaxRegions: maxR}, 0, 1<<20)
		rng := rand.New(rand.NewSource(3))
		var now uint64
		for i := 0; i < 100_000; i++ {
			now += 100
			m.Observe(rng.Uint64()%(1<<20), now)
		}
		return m.CPUOverhead()
	}
	coarse := mkRun(10, 100)
	fine := mkRun(2000, 4000)
	if fine <= coarse*5 {
		t.Fatalf("fine-grained monitoring not costlier: %v vs %v", fine, coarse)
	}
}

func TestAccuracyPrefersFreshFineEstimates(t *testing.T) {
	// Truth: two windows with disjoint hot pages.
	w0 := map[uint64]uint64{}
	w1 := map[uint64]uint64{}
	for p := uint64(0); p < 100; p++ {
		w0[p] = 100
		w1[p+1000] = 100
		w0[p+2000] = 1
		w1[p+2000] = 1
	}
	const winNS = 1000
	fresh := []Snapshot{
		{TimeNS: 0, Regions: []Region{{Start: 0, End: 100, NrAccesses: 20}, {Start: 100, End: 3000, NrAccesses: 0}}},
		{TimeNS: winNS, Regions: []Region{{Start: 0, End: 1000, NrAccesses: 0}, {Start: 1000, End: 1100, NrAccesses: 20}, {Start: 1100, End: 3000, NrAccesses: 0}}},
	}
	stale := []Snapshot{
		{TimeNS: 0, Regions: []Region{{Start: 0, End: 100, NrAccesses: 20}, {Start: 100, End: 3000, NrAccesses: 0}}},
	}
	fa := Accuracy(fresh, []map[uint64]uint64{w0, w1}, winNS)
	sa := Accuracy(stale, []map[uint64]uint64{w0, w1}, winNS)
	if fa <= sa {
		t.Fatalf("fresh %.3f not better than stale %.3f", fa, sa)
	}
	if fa < 0.9 {
		t.Fatalf("fresh accuracy %.3f too low", fa)
	}
}

func TestAccuracyEmptyInputs(t *testing.T) {
	if Accuracy(nil, nil, 1) != 0 {
		t.Fatal("nil inputs should score 0")
	}
	if Accuracy([]Snapshot{{}}, []map[uint64]uint64{{}}, 1) != 0 {
		t.Fatal("empty truth should score 0")
	}
}

// TestHotOverlapTiesDeterministic pins the tie rule: every page of one
// region shares an estimate, and the score must not depend on which of
// the tied pages map iteration happens to rank first. A tied group
// straddling the top decile counts its mean true volume per slot.
func TestHotOverlapTiesDeterministic(t *testing.T) {
	truth := map[uint64]uint64{}
	var total float64
	for p := uint64(0); p < 400; p++ {
		truth[p] = 1 + (p*7919)%97
		total += float64(truth[p])
	}
	est := []Region{{Start: 0, End: 400, NrAccesses: 200}} // every estimate tied at 0.5
	want := hotOverlap(est, truth)
	for i := 0; i < 50; i++ {
		if got := hotOverlap(est, truth); got != want {
			t.Fatalf("repeat %d scored %v, first scored %v", i, got, want)
		}
	}
	vals := make([]float64, 0, len(truth))
	for _, c := range truth {
		vals = append(vals, float64(c))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	var ideal float64
	for _, v := range vals[:40] {
		ideal += v
	}
	// The top decile takes 40 of the 400 tied slots: a tenth of the total.
	if exp := total / 10 / ideal; math.Abs(want-exp) > 1e-12 {
		t.Fatalf("tied score %v, want %v", want, exp)
	}
}

// TestPageEstimateMatchesExpansion holds the binary-search lookup
// against the naive expansion it replaced — each snapshot spread into
// a per-page map — on every snapshot of an adaptive run, at every page
// of the range and just past both ends.
func TestPageEstimateMatchesExpansion(t *testing.T) {
	const start, end = 100, 100 + 1<<12
	m := NewMonitor(Config{SampleIntervalNS: 1000, MinRegions: 8, MaxRegions: 64, AggrSamples: 5, Seed: 4}, start, end)
	rng := rand.New(rand.NewSource(4))
	var now uint64
	for i := 0; i < 20_000; i++ {
		now += 50
		m.Observe(start+rng.Uint64()%(end-start)/uint64(1+rng.Intn(8)), now)
	}
	m.Finish(now)
	for k, snap := range m.Snapshots() {
		est := make(map[uint64]float64)
		for _, r := range snap.Regions {
			if r.End <= r.Start {
				continue
			}
			for p := r.Start; p < r.End; p++ {
				est[p] += float64(r.NrAccesses) / float64(r.End-r.Start)
			}
		}
		for p := uint64(start - 2); p < end+2; p++ {
			if got := pageEstimate(snap.Regions, p); got != est[p] {
				t.Fatalf("snapshot %d page %d: lookup %v, expansion %v", k, p, got, est[p])
			}
		}
	}
}
