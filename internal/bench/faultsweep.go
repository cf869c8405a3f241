// The fault sweep: a (fault rate x policy) matrix quantifying how
// gracefully each tiering system degrades when migration copies abort
// transiently (DESIGN.md §6). Unlike the figure matrices, every cell
// is normalised to the *same policy's* fault-free run, so the sweep
// isolates fault sensitivity from baseline placement quality.
package bench

import (
	"context"
	"fmt"

	"memtis/internal/sim"
)

// FaultRates are the standard sweep points: copy-abort probabilities
// in parts per million (0 = the fault-free reference each policy is
// normalised against).
var FaultRates = []uint32{0, 1_000, 10_000, 50_000}

// faultCoord spells one sweep cell's ratio coordinate. The rate is
// folded into the coordinate so CellSeed gives every (rate, policy)
// cell an independent, worker-count-invariant stream.
func faultCoord(rt Ratio, ratePpm uint32) string {
	return fmt.Sprintf("%s+%dppm", rt.Name, ratePpm)
}

// FaultSweep runs every policy at every copy-abort rate on one
// workload and tiering ratio. The swept rate overrides
// cfg.Faults.MigrateFailPpm; any throttle/stall schedule in cfg.Faults
// applies to all cells alike. A zero rate with no other fault field
// set runs the genuinely unfaulted machine. Rates always include the
// 0 reference (prepended when missing); each cell's Value is its
// throughput normalised to the same policy's rate-0 run.
func (r *Runner) FaultSweep(ctx context.Context, cfg Config, wname string, rt Ratio, pols []string, rates []uint32) (*Matrix, error) {
	if pols == nil {
		pols = Policies
	}
	if rates == nil {
		rates = FaultRates
	}
	if rates[0] != 0 {
		rates = append([]uint32{0}, rates...)
	}
	var cells []simCell
	for _, rate := range rates {
		coord := faultCoord(rt, rate)
		for _, p := range pols {
			cells = append(cells, simCell{wname, coord, p, func(c Config) sim.Result {
				c.Faults.MigrateFailPpm = rate
				return RunOne(wname, p, rt, c)
			}})
		}
	}
	return r.runSweep(ctx, cfg, cells, len(pols))
}

// FaultSweepTable renders a fault sweep as a rate x policy table (the
// EXPERIMENTS.md "Fault sweep" presentation): rows are abort rates,
// values are throughput relative to that policy's fault-free run.
func FaultSweepTable(title string, m *Matrix, wname string, rt Ratio, pols []string, rates []uint32) Table {
	if pols == nil {
		pols = Policies
	}
	if rates == nil {
		rates = FaultRates
	}
	t := Table{Title: title, Header: append([]string{"fault rate"}, pols...)}
	for _, rate := range rates {
		row := []interface{}{fmt.Sprintf("%.2f%%", float64(rate)/10_000)}
		for _, p := range pols {
			v, _ := m.Get(wname, faultCoord(rt, rate), p)
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}
