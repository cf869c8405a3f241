package workload

import (
	"math"

	"memtis/internal/sim"
)

// Stream is one run of a workload in resumable form: a single ordered
// stream of accesses, reservations and frees. A driver pulls accesses
// a batch at a time and may stop between any two calls — at a tenant
// slice boundary, say — and resume later; all drive state lives in the
// stream.
type Stream interface {
	// Next writes the stream's next accesses into dst (len(dst) > 0)
	// and returns how many it wrote; 0 means the stream has ended. done
	// is the number of accesses the stream's address space has issued so
	// far — the count its budget and phase bounds are measured in, which
	// includes accesses other agents (a scheduler's grow touches) issued
	// to the same space. Reservations and frees due before the first
	// access written are applied to the machine's current space during
	// the call; none is applied once an access has been written, so
	// issuing dst[:n] right after the call keeps every op at its exact
	// stream position.
	Next(dst []sim.Op, done uint64) int
}

// Streamer is a workload that runs as a Stream — every workload the
// simulator drives: the Table 2 models, Synthetic, trace replays,
// single-tenant scenarios and the tenant sweep's loads.
type Streamer interface {
	sim.Workload
	// Stream starts a run of the workload on m with the given access
	// budget (the same budget Run takes). The stream seeds its randomness
	// from m.Cfg.Seed and reserves and frees through m.Reserve and
	// m.FreeRegion, which act on whichever space is current when it
	// pulls — the driver keeps that the stream's own. It may apply the
	// run's first reservations before returning.
	Stream(m *sim.Machine, budget uint64) Stream
}

// Drive is the one drive loop every workload runs under: it issues s's
// accesses to m's current space in maximal batches of up to len(buf),
// until the stream ends (false) or m's machine-wide count reaches end
// (true, the stream is suspended and may be driven again). Reservations
// and frees land between batches at their exact stream position.
func Drive(m *sim.Machine, s Stream, end uint64, buf []sim.Op) bool {
	for {
		total := m.TotalAccesses()
		if total >= end {
			return true
		}
		n := s.Next(buf[:min(uint64(len(buf)), end-total)], m.Accesses())
		if n == 0 {
			return false
		}
		m.AccessBatch(buf[:n])
	}
}

// Run drives w for budget accesses on m's current address space: the
// sim.Workload Run of every streaming workload.
func Run(m *sim.Machine, w Streamer, budget uint64) {
	Drive(m, w.Stream(m, budget), math.MaxUint64, make([]sim.Op, BatchSize))
}

// BatchSize is the drive batch: large enough to amortise the per-batch
// bookkeeping and stream indirection, small enough that the Op buffer
// stays L1-resident (4KB). Batched loops check their bounds once per
// BatchSize accesses.
const BatchSize = 256

// Unbounded is Sweep's count for a sweep bounded by its limit alone.
const Unbounded = math.MaxUint64

// Sweep returns a stream issuing gen's accesses in rounds. A round is
// sized when it starts, as min(round, limit-done, count-issued), and is
// then issued whole whatever else the space issues meanwhile; the
// stream ends at a round start that finds nothing left. round 1 checks
// the bounds before every access; larger rounds are a loop that
// pre-generates a batch and checks its bounds once per batch. gen must
// not touch machine state.
func Sweep(gen func() (vpn uint64, write bool), limit, count, round uint64) Stream {
	return &sweep{gen: gen, limit: limit, count: count, round: round}
}

type sweep struct {
	gen                 func() (uint64, bool)
	limit, count, round uint64
	issued, left        uint64
}

func (p *sweep) Next(dst []sim.Op, done uint64) int {
	n := 0
	for n < len(dst) {
		if p.left == 0 {
			cur := done + uint64(n)
			if cur >= p.limit || p.issued >= p.count {
				break
			}
			p.left = min(p.round, p.limit-cur, p.count-p.issued)
		}
		k := min(p.left, uint64(len(dst)-n))
		for i := n; i < n+int(k); i++ {
			dst[i].VPN, dst[i].Write = p.gen()
		}
		n += int(k)
		p.left -= k
		p.issued += k
	}
	return n
}

// Lazy returns a stream built when it is first pulled, from the space's
// access count at that point. build may apply reservations and frees
// to the machine; a nil result issues nothing.
func Lazy(build func(done uint64) Stream) Stream { return &lazy{build: build} }

type lazy struct {
	build func(uint64) Stream
	s     Stream
}

func (l *lazy) Next(dst []sim.Op, done uint64) int {
	if l.build != nil {
		l.s, l.build = l.build(done), nil
	}
	if l.s == nil {
		return 0
	}
	return l.s.Next(dst, done)
}

// Seq returns a stream running ss one after another. A stream is
// entered only once every access written before it has been issued, so
// what its first pull applies to the machine lands in order.
func Seq(ss ...Stream) Stream { return &seq{ss: ss} }

type seq struct{ ss []Stream }

func (q *seq) Next(dst []sim.Op, done uint64) int {
	for len(q.ss) > 0 {
		if n := q.ss[0].Next(dst, done); n > 0 {
			return n
		}
		q.ss[0] = nil
		q.ss = q.ss[1:]
	}
	return 0
}

// streamFunc adapts a function to Stream.
type streamFunc func(dst []sim.Op, done uint64) int

func (f streamFunc) Next(dst []sim.Op, done uint64) int { return f(dst, done) }

// Writes is the first-touch generator: one write per page, from base
// upward.
func Writes(base uint64) func() (uint64, bool) {
	return func() (uint64, bool) {
		v := base
		base++
		return v, true
	}
}
