// The tenant sweep: a (tenant count x share skew x churn rate) x
// policy matrix quantifying multi-tenancy overhead and fairness cost
// (DESIGN.md §10). Every cell is normalised to the *same policy's*
// single-tenant run, so the sweep isolates the price of contention and
// arbitration from baseline placement quality.
package bench

import (
	"context"
	"fmt"

	"memtis/internal/dist"
	"memtis/internal/fastmod"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// TenantLoad is the sweep's per-tenant synthetic workload: an 80/20
// hot/cold mix over the tenant's own region, driven by a SplitMix64
// counter stream seeded from the machine seed and the tenant name.
// It is stateless across runs (all run state lives in each stream), so
// one value is safely shared by parallel cells, and under the tenant
// scheduler its per-space access budget makes every tenant run until
// the global budget is spent.
type TenantLoad struct {
	name  string
	bytes uint64
}

// NewTenantLoad builds a tenant workload over a region of the given
// size (rounded up to one base page).
func NewTenantLoad(name string, bytes uint64) *TenantLoad {
	if bytes < tier.BasePageSize {
		bytes = tier.BasePageSize
	}
	return &TenantLoad{name: name, bytes: bytes}
}

// Name identifies the workload in tables and traces.
func (t *TenantLoad) Name() string { return t.name }

// RSSBytes reports the region the workload reserves on first schedule.
func (t *TenantLoad) RSSBytes() uint64 { return t.bytes }

// Run drives the 80/20 skewed access stream over the tenant's region.
func (t *TenantLoad) Run(m *sim.Machine, accesses uint64) { workload.Run(m, t, accesses) }

// Stream implements workload.Streamer: reserve the region, then draw
// accesses until the budget is spent.
func (t *TenantLoad) Stream(m *sim.Machine, budget uint64) workload.Stream {
	r := m.Reserve(t.bytes)
	hot := r.Pages / 8
	if hot == 0 {
		hot = 1
	}
	// Reciprocal remainders (exact, see internal/fastmod): the two span
	// reductions are the only hardware divides left on the access path.
	return &tenantStream{
		base:   dist.SplitMix64(uint64(m.Cfg.Seed) ^ dist.FNV1a(t.name)),
		vpn:    r.BaseVPN,
		spans:  [2]fastmod.M{fastmod.New(hot), fastmod.New(r.Pages)},
		budget: budget,
	}
}

// tenantStream is TenantLoad's drive state: the SplitMix64 counter.
type tenantStream struct {
	base, ctr, vpn, budget uint64
	spans                  [2]fastmod.M // hot span, full region
}

// Next fills dst with the counter stream's next accesses, the span
// picked by index so the 20% roam case is a predicate, not a
// mispredicted branch.
func (s *tenantStream) Next(dst []sim.Op, done uint64) int {
	if done >= s.budget {
		return 0
	}
	dst = dst[:min(uint64(len(dst)), s.budget-done)]
	c := s.ctr
	for i := range dst {
		c++
		x := dist.SplitMix64(s.base + c)
		k := 0
		if x%5 == 4 { // 20% of probes roam the full region
			k = 1
		}
		dst[i].VPN, dst[i].Write = s.vpn+s.spans[k].Mod(x>>8), x&7 == 0
	}
	s.ctr = c
	return len(dst)
}

// TenantPoint is one sweep coordinate: how many tenants contend, how
// their promotion weights are skewed, and what fraction of them churn
// (spawn late, exit early) during the run.
type TenantPoint struct {
	Tenants   int
	Skew      string  // "flat" (all weight 1) or "8to1" (tenant 0 gets 8x)
	ChurnFrac float64 // fraction of tenants 1..n-1 that spawn/exit mid-run
}

// DefaultTenantPoints is the standard sweep: the single-tenant
// reference plus count x skew x churn combinations small enough for CI.
var DefaultTenantPoints = []TenantPoint{
	{Tenants: 1, Skew: "flat"},
	{Tenants: 4, Skew: "flat"},
	{Tenants: 4, Skew: "8to1"},
	{Tenants: 4, Skew: "flat", ChurnFrac: 0.5},
	{Tenants: 16, Skew: "flat"},
	{Tenants: 16, Skew: "8to1"},
	{Tenants: 16, Skew: "8to1", ChurnFrac: 0.5},
	{Tenants: 64, Skew: "flat"},
	{Tenants: 64, Skew: "8to1", ChurnFrac: 0.5},
}

// tenantCoord spells one sweep cell's ratio coordinate. The point is
// folded into the coordinate so CellSeed gives every (point, policy)
// cell an independent, worker-count-invariant stream.
func tenantCoord(rt Ratio, p TenantPoint) string {
	return fmt.Sprintf("%s+t%d+%s+c%d", rt.Name, p.Tenants, p.Skew, int(p.ChurnFrac*100+0.5))
}

// TenantMix builds the sweep's tenant configuration for a point: n
// tenants each driving a TenantLoad over perTenantBytes of its own
// address space. Skew "8to1" gives tenant 0 weight 8 (everyone else 1);
// a ChurnFrac of the tenants after the first spawn at 10% and exit at
// 70% of the run. Large mixes get a smaller scheduling slice so the
// budget still spreads across every tenant. Returns the config and the
// mix's combined resident footprint.
func TenantMix(p TenantPoint, perTenantBytes uint64) (tenant.Config, uint64) {
	specs := make([]tenant.Spec, p.Tenants)
	churn := int(p.ChurnFrac * float64(p.Tenants))
	var rss uint64
	for i := range specs {
		name := fmt.Sprintf("t%03d", i)
		specs[i] = tenant.Spec{
			Name:     name,
			Weight:   1,
			Workload: NewTenantLoad(name, perTenantBytes),
		}
		if p.Skew == "8to1" && i == 0 {
			specs[i].Weight = 8
		}
		if i >= 1 && i <= churn {
			specs[i].SpawnFrac = 0.1
			specs[i].ExitFrac = 0.7
		}
		rss += perTenantBytes
	}
	// Slice stays 0: tenant.AutoSlice scales the quantum down for
	// large mixes so the budget still spreads across every tenant.
	return tenant.Config{Tenants: specs}, rss
}

// tenantSweepBytes sizes the per-tenant region so the whole mix stays
// near a fixed total footprint: contention pressure comes from the
// tenant count, not from an ever-growing machine.
func tenantSweepBytes(n int) uint64 {
	const total = 64 << 20
	per := uint64(total / n)
	if per < 1<<20 {
		per = 1 << 20
	}
	return per
}

// RunTenants executes one (tenant mix, policy, ratio) cell: machine
// sized from the mix's combined footprint exactly like MachineFor,
// driven by the tenant scheduler to the full access budget.
func RunTenants(tn *tenant.Runner, rss uint64, polName string, rt Ratio, cfg Config) sim.Result {
	return sim.Run(machine(cfg, fastTier(rss, rt), capTier(rss)), NewPolicy(polName), tn, cfg.Accesses)
}

// TenantSweep runs every policy at every tenant point on one tiering
// ratio. Points always include the single-tenant reference (prepended
// when missing); each cell's Value is its throughput normalised to the
// same policy's single-tenant run, so a value of 0.8 reads "this
// policy loses 20% throughput under this degree of multi-tenancy".
func (r *Runner) TenantSweep(ctx context.Context, cfg Config, rt Ratio, pols []string, points []TenantPoint) (*Matrix, error) {
	if pols == nil {
		pols = Policies
	}
	if points == nil {
		points = DefaultTenantPoints
	}
	if points[0].Tenants != 1 {
		points = append([]TenantPoint{{Tenants: 1, Skew: "flat"}}, points...)
	}
	// One immutable runner per point, shared by that point's policy
	// cells (all run state is per-Run).
	var cells []simCell
	for _, pt := range points {
		tc, rss := TenantMix(pt, tenantSweepBytes(pt.Tenants))
		tn, err := tenant.New(tc)
		if err != nil {
			return nil, fmt.Errorf("bench: tenant sweep point %+v: %w", pt, err)
		}
		coord := tenantCoord(rt, pt)
		for _, p := range pols {
			cells = append(cells, simCell{"tenants", coord, p, func(c Config) sim.Result {
				return RunTenants(tn, rss, p, rt, c)
			}})
		}
	}
	return r.runSweep(ctx, cfg, cells, len(pols))
}

// TenantSweepTable renders a tenant sweep as a point x policy table
// (the EXPERIMENTS.md "Tenant sweep" presentation): rows are sweep
// points, values are throughput relative to that policy's
// single-tenant run.
func TenantSweepTable(title string, m *Matrix, rt Ratio, pols []string, points []TenantPoint) Table {
	if pols == nil {
		pols = Policies
	}
	if points == nil {
		points = DefaultTenantPoints
	}
	t := Table{Title: title, Header: append([]string{"tenants"}, pols...)}
	for _, pt := range points {
		label := fmt.Sprintf("%d %s", pt.Tenants, pt.Skew)
		if pt.ChurnFrac > 0 {
			label += fmt.Sprintf(" churn=%d%%", int(pt.ChurnFrac*100+0.5))
		}
		row := []interface{}{label}
		for _, p := range pols {
			v, _ := m.Get("tenants", tenantCoord(rt, pt), p)
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}
