// Package damon reimplements the essentials of Linux's DAMON
// (Data Access MONitor) region-based access tracking, which the paper's
// Figure 1 uses to demonstrate the trade-off between scanning
// granularity, scan interval and accuracy. A monitor divides the target
// address range into regions, checks one sampled page per region per
// sampling interval (the accessed-bit check), aggregates the per-region
// access counts, and adaptively splits/merges regions between a
// configured minimum and maximum count.
package damon

import (
	"math/rand"
	"sort"
)

// checkCostNS models the cost of one accessed-bit check (rmap walk plus
// PTE inspection, ~360ns raw), scaled 1/5 with the simulator's sampling
// intervals. Large region tables pay a mild superlinear penalty (cache
// misses walking the table), which is what pushes the paper's
// 5ms-10K-20K configuration to ~73% of a core.
func checkCostNS(regions int) float64 {
	lg := 0.0
	for n := regions; n > 1; n >>= 1 {
		lg++
	}
	return 27 * (1 + lg/8)
}

// Config mirrors DAMON's attrs: sampling interval, aggregation factor
// and region-count bounds. The paper's Figure 1 configurations are
// (5ms, 10, 1000), (500ms, 10000, 20000) and (5ms, 10000, 20000).
type Config struct {
	SampleIntervalNS uint64 // accessed-bit check interval
	AggrSamples      int    // samplings per aggregation window (DAMON default 20)
	MinRegions       int
	MaxRegions       int
	Seed             int64
}

// Region is one monitored address range with its aggregated access
// count ("nr_accesses" in DAMON terms).
type Region struct {
	Start, End uint64 // base-page numbers, [Start, End)
	NrAccesses int    // accessed-bit hits in the last aggregation window

	sampled uint64 // page checked this sampling interval
	hit     bool
}

// Snapshot is one aggregation window's result.
type Snapshot struct {
	TimeNS  uint64
	Regions []Region
}

// Monitor consumes the access stream of a simulation and produces
// region snapshots. Costs are modelled, not measured.
type Monitor struct {
	cfg     Config
	rng     *rand.Rand
	regions []Region
	start   uint64
	end     uint64

	nextSample uint64
	samplings  int

	snapshots []Snapshot
	checkNS   float64 // accumulated modelled CPU time
	windowNS  uint64  // total monitored virtual time

	mergeThr int // adaptive merge-similarity threshold
}

// NewMonitor creates a monitor over the page range [start, end).
func NewMonitor(cfg Config, start, end uint64) *Monitor {
	if cfg.AggrSamples <= 0 {
		cfg.AggrSamples = 20
	}
	if cfg.MinRegions <= 0 {
		cfg.MinRegions = 10
	}
	if cfg.MaxRegions < cfg.MinRegions {
		cfg.MaxRegions = cfg.MinRegions
	}
	m := &Monitor{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed + 1)),
		start:    start,
		end:      end,
		mergeThr: cfg.AggrSamples / 10,
	}
	// Initial split into MinRegions equal regions.
	n := uint64(cfg.MinRegions)
	span := (end - start) / n
	if span == 0 {
		span = 1
	}
	for i := uint64(0); i < n; i++ {
		s := start + i*span
		e := s + span
		if i == n-1 {
			e = end
		}
		if s >= e {
			break
		}
		m.regions = append(m.regions, Region{Start: s, End: e})
	}
	m.pickSampledPages()
	return m
}

func (m *Monitor) pickSampledPages() {
	for i := range m.regions {
		r := &m.regions[i]
		r.sampled = r.Start + uint64(m.rng.Int63n(int64(r.End-r.Start)))
		r.hit = false
	}
}

// regionIndex locates the region containing vpn via binary search.
func (m *Monitor) regionIndex(vpn uint64) int {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].End > vpn })
	if i < len(m.regions) && vpn >= m.regions[i].Start {
		return i
	}
	return -1
}

// Observe feeds one application access at virtual time now. DAMON only
// "sees" the access if it touches the region's currently sampled page —
// exactly the accessed-bit check semantics.
func (m *Monitor) Observe(vpn uint64, now uint64) {
	for now >= m.nextSample {
		m.endSampling(m.nextSample)
		m.nextSample += m.cfg.SampleIntervalNS
	}
	if i := m.regionIndex(vpn); i >= 0 && m.regions[i].sampled == vpn {
		m.regions[i].hit = true
	}
}

// endSampling closes one sampling interval: accessed bits fold into the
// per-region counters, and every AggrSamples intervals a snapshot is
// taken and regions are adapted.
func (m *Monitor) endSampling(now uint64) {
	m.checkNS += float64(len(m.regions)) * checkCostNS(len(m.regions))
	m.windowNS += m.cfg.SampleIntervalNS
	for i := range m.regions {
		if m.regions[i].hit {
			m.regions[i].NrAccesses++
		}
	}
	m.samplings++
	if m.samplings >= m.cfg.AggrSamples {
		m.aggregate(now)
		m.samplings = 0
	}
	m.pickSampledPages()
}

func (m *Monitor) aggregate(now uint64) {
	snap := Snapshot{TimeNS: now, Regions: append([]Region(nil), m.regions...)}
	m.snapshots = append(m.snapshots, snap)
	m.adaptRegions()
	// Adapt the merge threshold toward a healthy region population,
	// as DAMON's adaptive-regions logic does: merging everything away
	// loses spatial resolution, exceeding the max loses the bound.
	switch {
	case len(m.regions) < m.cfg.MaxRegions/2 && m.mergeThr > 0:
		m.mergeThr--
	case len(m.regions) >= m.cfg.MaxRegions*9/10:
		m.mergeThr++
	}
	for i := range m.regions {
		m.regions[i].NrAccesses = 0
	}
}

// adaptRegions merges adjacent regions with similar access counts and
// splits the rest, keeping the region count within bounds — a compact
// version of DAMON's adaptive regions algorithm.
func (m *Monitor) adaptRegions() {
	// Merge pass: only strictly similar neighbours, never dropping the
	// region count below the configured minimum.
	merged := m.regions[:0:0]
	remaining := len(m.regions)
	for _, r := range m.regions {
		n := len(merged)
		remaining--
		if n > 0 && merged[n-1].End == r.Start &&
			similar(merged[n-1].NrAccesses, r.NrAccesses, m.mergeThr) &&
			n+remaining+1 > m.mergeFloor() {
			merged[n-1].End = r.End
			merged[n-1].NrAccesses = (merged[n-1].NrAccesses + r.NrAccesses) / 2
			continue
		}
		merged = append(merged, r)
	}
	// Split pass: split regions in two while under the max, so the
	// region population keeps probing for structure.
	out := make([]Region, 0, len(merged)*2)
	for i, r := range merged {
		rest := len(merged) - i - 1
		if len(out)+rest+2 <= m.cfg.MaxRegions && r.End-r.Start >= 2 {
			mid := r.Start + 1 + uint64(m.rng.Int63n(int64(r.End-r.Start-1)))
			out = append(out,
				Region{Start: r.Start, End: mid, NrAccesses: r.NrAccesses},
				Region{Start: mid, End: r.End, NrAccesses: r.NrAccesses})
		} else {
			out = append(out, r)
		}
	}
	m.regions = out
}

// mergeFloor is the minimum region population the merge pass preserves.
// Keeping it at half the maximum mirrors DAMON's behaviour of hovering
// between its bounds rather than collapsing to the minimum (equal-count
// split halves would otherwise re-merge instantly every aggregation).
func (m *Monitor) mergeFloor() int {
	f := m.cfg.MaxRegions / 2
	if f < m.cfg.MinRegions {
		f = m.cfg.MinRegions
	}
	return f
}

// similar reports whether two aggregation counts are within the merge
// threshold.
func similar(a, b, thr int) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= thr
}

// Finish flushes a final snapshot at time now.
func (m *Monitor) Finish(now uint64) {
	m.endSampling(now)
	if m.samplings != 0 {
		m.aggregate(now)
		m.samplings = 0
	}
}

// Snapshots returns all aggregation-window snapshots.
func (m *Monitor) Snapshots() []Snapshot { return m.snapshots }

// CPUOverhead returns the modelled monitor CPU usage as a fraction of
// one core over the monitored interval.
func (m *Monitor) CPUOverhead() float64 {
	if m.windowNS == 0 {
		return 0
	}
	return m.checkNS / float64(m.windowNS)
}

// Regions returns the current number of regions.
func (m *Monitor) Regions() int { return len(m.regions) }

// hotOverlap scores one (estimate, truth) pair as captured volume: the
// true access volume of the estimator's top-decile pages divided by the
// volume of the ideal top decile. Stale or spatially blurred estimates
// lower the score. Pages with equal estimates (every page of one
// region) are indistinguishable to the estimator, so a tied group that
// straddles the decile boundary contributes its mean true volume per
// slot taken — the score any order of the ties would get on average,
// and one that never depends on map iteration order. regions is the
// estimate's snapshot, sorted and disjoint as the monitor keeps them.
func hotOverlap(regions []Region, truth map[uint64]uint64) float64 {
	if len(truth) == 0 {
		return 0
	}
	type pv struct {
		p uint64
		v float64
	}
	vols := make([]float64, 0, len(truth))
	es := make([]pv, 0, len(truth))
	for p, c := range truth {
		vols = append(vols, float64(c))
		es = append(es, pv{p, pageEstimate(regions, p)})
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vols)))
	// Within a tie group, VPN order fixes the summation order.
	sort.Slice(es, func(i, j int) bool {
		if es[i].v != es[j].v {
			return es[i].v > es[j].v
		}
		return es[i].p < es[j].p
	})
	k := len(vols) / 10
	if k < 1 {
		k = 1
	}
	var idealVol, capturedVol float64
	for _, v := range vols[:k] {
		idealVol += v
	}
	for i := 0; i < k; {
		j := i + 1
		for j < len(es) && es[j].v == es[i].v {
			j++
		}
		var groupVol float64
		for _, e := range es[i:j] {
			groupVol += float64(truth[e.p])
		}
		capturedVol += groupVol * float64(min(j, k)-i) / float64(j-i)
		i = j
	}
	if idealVol == 0 {
		return 0
	}
	return capturedVol / idealVol
}

// estimateAt returns the regions of the snapshot covering time t (the
// latest snapshot at or before t, else the first).
func estimateAt(snaps []Snapshot, t uint64) []Region {
	if len(snaps) == 0 {
		return nil
	}
	chosen := snaps[0]
	for _, s := range snaps {
		if s.TimeNS <= t {
			chosen = s
		} else {
			break
		}
	}
	return chosen.Regions
}

// pageEstimate returns page p's frequency estimate under sorted,
// disjoint regions: the hits of the region holding p spread over the
// region's span, so coarse regions blur spatially. A page no region
// holds estimates 0; so does every page of a region with End <= Start,
// which the containment test skips.
func pageEstimate(regions []Region, p uint64) float64 {
	i := sort.Search(len(regions), func(i int) bool { return regions[i].End > p })
	if i == len(regions) || p < regions[i].Start {
		return 0
	}
	r := regions[i]
	return float64(r.NrAccesses) / float64(r.End-r.Start)
}

// Accuracy compares the monitor's view against a per-time-window ground
// truth of page access counts: for each truth window it scores the
// hottest-decile overlap of the snapshot in effect at that window's
// midpoint, and averages. Coarse regions blur space; long intervals
// blur time; both depress the score — the Figure 1 trade-off.
func Accuracy(snaps []Snapshot, windows []map[uint64]uint64, windowNS uint64) float64 {
	if len(snaps) == 0 || len(windows) == 0 {
		return 0
	}
	var sum float64
	var n int
	for i, truth := range windows {
		if len(truth) == 0 {
			continue
		}
		mid := uint64(i)*windowNS + windowNS/2
		sum += hotOverlap(estimateAt(snaps, mid), truth)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
