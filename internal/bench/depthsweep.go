// The depth sweep: a (tier depth x admission policy x fault rate)
// matrix over the N-tier machines of DESIGN.md §11. Each cell runs one
// policy on a hierarchy TopologyForDepth derives from the workload's
// resident set, with the chosen admission gate installed and the
// background mover active, and is normalised to the same policy's
// reference cell (first depth, first admission, fault-free) — so the
// sweep isolates what deepening the hierarchy and gating migrations
// cost, not baseline placement quality.
package bench

import (
	"context"
	"fmt"

	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// DepthSweepDepths are the standard hierarchy depths of the sweep:
// the classic pair, a CXL middle tier, and a far-memory bottom tier.
var DepthSweepDepths = []int{2, 3, 4}

// DepthSweepAdmissions are the standard admission policies of the
// sweep, by tier.ParseAdmission name. "always" is the null baseline
// that exposes what rejection would have saved.
var DepthSweepAdmissions = []string{"always", "throttle", "benefit"}

// DepthSweepRates are the copy-abort rates (ppm) the sweep crosses
// with depth and admission; 0 is the reference plane.
var DepthSweepRates = []uint32{0, 10_000}

// depthCoord spells one sweep cell's ratio coordinate. Depth,
// admission and rate are all folded in so CellSeed gives every cell an
// independent, worker-count-invariant stream.
func depthCoord(rt Ratio, depth int, admission string, ratePpm uint32) string {
	return fmt.Sprintf("%s+d%d+%s+%dppm", rt.Name, depth, admission, ratePpm)
}

// TopologyForDepth derives the sweep's tier chain for a workload with
// the given resident set at a tiering ratio. The fast tier is sized
// exactly as MachineFor sizes it (the ratio fraction of RSS, floor two
// huge frames) and the deepest tier always holds the full resident set
// plus the same head-room as the two-tier capacity tier, so only the
// upper tiers are constrained resources:
//
//	depth 2: DRAM > capKind            — the classic pair
//	depth 3: DRAM > CXL(RSS/2) > capKind
//	depth 4: DRAM > CXL(RSS/2) > capKind(RSS) > Far
//
// Depth 2 builds the exact tier set of the default machine, which is
// what keeps the sweep's reference plane comparable to every other
// experiment in the harness.
func TopologyForDepth(rss uint64, r Ratio, depth int, capKind tier.Kind) (*tier.Topology, error) {
	fast, last := fastTier(rss, r), capTier(rss)
	t := &tier.Topology{}
	switch depth {
	case 2:
		t = tier.DefaultTopology(fast, last, capKind)
	case 3:
		t.Tiers = []tier.Config{
			{Name: "DRAM", Kind: tier.DRAM, Bytes: fast},
			{Name: "CXL", Kind: tier.CXL, Bytes: max(rss/2, minTier)},
			{Name: capKind.String(), Kind: capKind, Bytes: last},
		}
	case 4:
		t.Tiers = []tier.Config{
			{Name: "DRAM", Kind: tier.DRAM, Bytes: fast},
			{Name: "CXL", Kind: tier.CXL, Bytes: max(rss/2, minTier)},
			{Name: capKind.String(), Kind: capKind, Bytes: max(rss, minTier)},
			{Name: "Far", Kind: tier.Far, Bytes: last},
		}
	default:
		return nil, fmt.Errorf("bench: depth sweep supports depths 2-4, not %d", depth)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// DepthSweep runs every policy over every (depth, admission, rate)
// cell on one workload and tiering ratio. cfg.Mover applies to every
// cell (enable it to exercise the background mover across the sweep);
// cfg.Topology and cfg.Admission are overridden per cell. Each cell's
// Value is its throughput normalised to the same policy's reference
// cell (depths[0], admissions[0], rates[0]) — pass slices whose first
// elements are the intended reference plane, or nil for the defaults.
func (r *Runner) DepthSweep(ctx context.Context, cfg Config, wname string, rt Ratio, pols []string, depths []int, admissions []string, rates []uint32) (*Matrix, error) {
	if pols == nil {
		pols = Policies
	}
	if depths == nil {
		depths = DepthSweepDepths
	}
	if admissions == nil {
		admissions = DepthSweepAdmissions
	}
	if rates == nil {
		rates = DepthSweepRates
	}
	rss := workload.MustNew(wname).Spec().RSSBytes()
	for _, a := range admissions {
		if _, err := tier.ParseAdmission(a); err != nil {
			return nil, err
		}
	}
	for _, d := range depths {
		if _, err := TopologyForDepth(rss, rt, d, cfg.CapKind); err != nil {
			return nil, err
		}
	}
	var cells []simCell
	for _, d := range depths {
		for _, a := range admissions {
			for _, rate := range rates {
				coord := depthCoord(rt, d, a, rate)
				for _, p := range pols {
					cells = append(cells, simCell{wname, coord, p, func(c Config) sim.Result {
						c.Faults.MigrateFailPpm = rate
						c.Topology, _ = TopologyForDepth(rss, rt, d, cfg.CapKind)
						c.Admission, _ = tier.ParseAdmission(a)
						return RunOne(wname, p, rt, c)
					}})
				}
			}
		}
	}
	return r.runSweep(ctx, cfg, cells, len(pols))
}

// DepthSweepTable renders a depth sweep as a (depth, admission, rate)
// x policy table — the EXPERIMENTS.md "Depth sweep" presentation:
// values are throughput relative to that policy's reference cell.
func DepthSweepTable(title string, m *Matrix, wname string, rt Ratio, pols []string, depths []int, admissions []string, rates []uint32) Table {
	if pols == nil {
		pols = Policies
	}
	if depths == nil {
		depths = DepthSweepDepths
	}
	if admissions == nil {
		admissions = DepthSweepAdmissions
	}
	if rates == nil {
		rates = DepthSweepRates
	}
	t := Table{Title: title, Header: append([]string{"depth", "admission", "fault rate"}, pols...)}
	for _, d := range depths {
		for _, a := range admissions {
			for _, rate := range rates {
				row := []interface{}{fmt.Sprintf("%d", d), a, fmt.Sprintf("%.2f%%", float64(rate)/10_000)}
				for _, p := range pols {
					v, _ := m.Get(wname, depthCoord(rt, d, a, rate), p)
					row = append(row, v)
				}
				t.AddRow(row...)
			}
		}
	}
	return t
}
