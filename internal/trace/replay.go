package trace

import (
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// Capture attaches a trace writer to a machine: every access the
// machine executes is appended to w. It returns a detach function. Any
// write error is deferred to the writer's Flush.
func Capture(m *sim.Machine, w *Writer) (detach func()) {
	prev := m.AccessObserver
	m.AccessObserver = func(vpn uint64, write bool, now uint64) {
		_ = w.Add(vpn, write)
		if prev != nil {
			prev(vpn, write, now)
		}
	}
	return func() { m.AccessObserver = prev }
}

// Replay is a workload that re-issues a recorded access stream
// against a fresh machine, mapping the recorded address range into a
// newly reserved region. Replaying the same trace under different
// policies gives an exact apples-to-apples placement comparison.
type Replay struct {
	name string
	recs []Record
	min  uint64
	span uint64
}

// NewReplay builds a replay workload from records.
func NewReplay(name string, recs []Record) *Replay {
	st := Analyze(recs, 0)
	span := st.MaxVPN - st.MinVPN + 1
	if len(recs) == 0 {
		span = 1
	}
	return &Replay{name: name, recs: recs, min: st.MinVPN, span: span}
}

// Name implements sim.Workload.
func (r *Replay) Name() string { return r.name }

// Records returns the replayed record count.
func (r *Replay) Records() int { return len(r.recs) }

// SpanPages returns the size, in base pages, of the region Run reserves
// to hold the remapped trace (max recorded VPN - min + 1). Harnesses use
// it to budget machine capacity for a replay phase.
func (r *Replay) SpanPages() uint64 { return r.span }

// Run implements sim.Workload by driving the replay stream.
func (r *Replay) Run(m *sim.Machine, accesses uint64) { workload.Run(m, r, accesses) }

// Stream implements workload.Streamer: reserve the remapped span, then
// loop the trace until the access budget is consumed (a trace shorter
// than the budget repeats, modelling the iterative structure of the
// original applications), the budget checked before every access.
func (r *Replay) Stream(m *sim.Machine, accesses uint64) workload.Stream {
	region := m.Reserve(r.span * tier.BasePageSize)
	if len(r.recs) == 0 {
		return workload.Seq()
	}
	i := 0
	return workload.Sweep(func() (uint64, bool) {
		rec := r.recs[i]
		if i++; i == len(r.recs) {
			i = 0
		}
		return region.BaseVPN + (rec.VPN - r.min), rec.Write
	}, accesses, workload.Unbounded, 1)
}

var _ workload.Streamer = (*Replay)(nil)
