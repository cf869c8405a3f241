package workload

import (
	"fmt"

	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// StreamKey is what a Table 2 model's stream is a function of: the
// model, its scaled resident set, the seed it draws from and its
// budget. On a fresh one-space machine nothing else reaches it: the
// model reads the machine only through that seed and its own
// reservations and frees, whose layout no policy changes.
type StreamKey struct {
	Name   string
	RSS    uint64
	Seed   int64
	Budget uint64
}

// Key returns the key of w's stream on a machine built from cfg.
func (w *W) Key(cfg sim.Config, budget uint64) StreamKey {
	return StreamKey{w.spec.Name, w.spec.RSSBytes(), streamSeed(cfg), budget}
}

// Capture is a Table 2 model's stream drawn once: its accesses, and
// its reservations and frees at their stream positions. It is a
// sim.Workload whose Stream replays them, so a cell driven by a
// capture matches one driven by the model; the replay skips the
// model's build, so it allocates no generator state. A capture is
// read-only once drawn, and any number of replays may share it.
type Capture struct {
	key    StreamKey
	ops    []uint32 // VPN<<1 | write
	events []event
	at     uint64 // while drawing: the ops drawn so far
}

// event is a reservation of bytes that returned r, or a free of r,
// applied once at ops have been handed out.
type event struct {
	at    uint64
	free  bool
	bytes uint64
	r     vm.Region
}

// log records e at the stream position being drawn; a nil capture
// records nothing.
func (c *Capture) log(e event) {
	if c != nil {
		e.at = c.at
		c.events = append(c.events, e)
	}
}

// Capture draws w's stream for budget accesses on a policy-free
// machine built from cfg without its tracer, fault plan or series. It
// pulls the stream to its end without issuing an access, so done is
// the count pulled so far: what done is for a stream driven alone on
// a fresh one-space machine. It returns nil when a VPN does not fit an
// op's 31 bits.
func (w *W) Capture(cfg sim.Config, budget uint64) *Capture {
	cfg.Trace, cfg.Faults, cfg.RecordNS = nil, tier.FaultConfig{}, 0
	c := &Capture{key: w.Key(cfg, budget), ops: make([]uint32, 0, budget)}
	s := w.stream(sim.NewMachine(cfg, nil), budget, c)
	// A capture is a drive loop to the run-ahead gate: its steady phase
	// draws ahead only while a CPU is idle.
	running.Add(1)
	defer running.Add(-1)
	buf := make([]sim.Op, BatchSize)
	for {
		c.at = uint64(len(c.ops))
		n := s.Next(buf, c.at)
		if n == 0 {
			return c
		}
		for _, op := range buf[:n] {
			if op.VPN >= 1<<31 {
				return nil
			}
			x := uint32(op.VPN) << 1
			if op.Write {
				x |= 1
			}
			c.ops = append(c.ops, x)
		}
	}
}

// Name implements sim.Workload: the model's name.
func (c *Capture) Name() string { return c.key.Name }

// Run implements sim.Workload by driving a replay.
func (c *Capture) Run(m *sim.Machine, accesses uint64) { Run(m, c, accesses) }

// Stream implements Streamer with a replay of the capture. It is valid
// only on a fresh one-space machine that the replay is driven on
// alone, by Run, with the budget the capture was drawn for. The
// position-0 reservations are applied before it returns; a Reserve
// that returns another region than the capture's panics.
func (c *Capture) Stream(m *sim.Machine, budget uint64) Stream {
	if budget != c.key.Budget {
		panic(fmt.Sprintf("workload: replay of %+v with budget %d", c.key, budget))
	}
	r := &replay{Capture: c, m: m}
	r.apply()
	return r
}

type replay struct {
	*Capture
	m   *sim.Machine
	pos uint64 // ops handed out
	ev  int    // events applied
}

// apply applies the events due at the replay's position.
func (r *replay) apply() {
	for ; r.ev < len(r.events) && r.events[r.ev].at == r.pos; r.ev++ {
		e := r.events[r.ev]
		if e.free {
			r.m.FreeRegion(e.r)
		} else if got := r.m.Reserve(e.bytes); got != e.r {
			panic(fmt.Sprintf("workload: replay of %+v: Reserve(%d) returned %+v, the capture %+v", r.key, e.bytes, got, e.r))
		}
	}
}

// Next hands out the ops up to the next event, which the call that
// reaches it applies first.
func (r *replay) Next(dst []sim.Op, done uint64) int {
	if done != r.pos {
		panic(fmt.Sprintf("workload: replay of %+v at op %d on a space that issued %d", r.key, r.pos, done))
	}
	r.apply()
	end := uint64(len(r.ops))
	if r.ev < len(r.events) {
		end = r.events[r.ev].at
	}
	n := min(uint64(len(dst)), end-r.pos)
	for i, x := range r.ops[r.pos : r.pos+n] {
		dst[i] = sim.Op{VPN: uint64(x >> 1), Write: x&1 != 0}
	}
	r.pos += n
	return int(n)
}

var _ Streamer = (*Capture)(nil)
