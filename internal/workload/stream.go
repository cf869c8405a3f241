package workload

import (
	"math"
	"runtime"
	"sync/atomic"

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
	// from m.Cfg.Seed (a Table 2 model from m.Cfg.StreamSeed, Seed when
	// that is zero) and reserves and frees through m.Reserve and
	// m.FreeRegion, which act on whichever space is current when it
	// pulls — the driver keeps that the stream's own. It may apply the
	// run's first reservations before returning.
	Stream(m *sim.Machine, budget uint64) Stream
}

// Drive is the one drive loop every workload runs under: it issues s's
// accesses to m's current space in maximal batches of up to len(buf),
// until the stream ends (false) or m's machine-wide count reaches end
// (true, the stream is suspended and may be driven again). Reservations
// and frees land between batches at their exact stream position. Drive
// loops in progress are counted process-wide: a Steady phase draws
// ahead only while they leave a CPU idle.
func Drive(m *sim.Machine, s Stream, end uint64, buf []sim.Op) bool {
	running.Add(1)
	defer running.Add(-1)
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

// Steady returns a steady phase: Sweep(gen, limit, Unbounded,
// BatchSize), with one more contract: gen's state is the stream's own,
// and nothing reads it once the stream ends. A long steady phase may
// then draw ahead of the machine on a CPU the process leaves idle and
// hand the same values over in chunks. gen is still called once per
// value, in stream order, and never concurrently with itself. Values
// drawn past the stream's end are discarded; that happens only when
// another agent advances the space's count. Nothing the machine
// records depends on whether a stream drew ahead.
//
// A fill draws ahead only when the process runs fewer Drive loops and
// fills than GOMAXPROCS and at least aheadMin gen calls may still
// come, counted as the current round's rest or the limit less the
// space's count, whichever is more, less the values already drawn. A
// lone stream therefore draws nothing past its end.
func Steady(gen func() (vpn uint64, write bool), limit uint64) Stream {
	return &sweep{gen: gen, limit: limit, count: Unbounded, round: BatchSize, ra: new(runAhead)}
}

type sweep struct {
	gen                 func() (uint64, bool)
	limit, count, round uint64
	issued, left        uint64
	ra                  *runAhead // a Steady phase's drawn values; nil draws inline
}

func (p *sweep) Next(dst []sim.Op, done uint64) int {
	n := 0
	for n < len(dst) {
		at := done + uint64(n)
		if p.left == 0 {
			if at >= p.limit || p.issued >= p.count {
				if p.ra != nil {
					p.ra.release()
				}
				break
			}
			p.left = min(p.round, p.limit-at, p.count-p.issued)
		}
		k := min(p.left, uint64(len(dst)-n))
		if p.ra == nil {
			fill(dst[n:n+int(k)], p.gen)
		} else {
			// The round's rest keeps the bound at least k when another
			// agent has carried the space past the limit mid-round.
			p.ra.draw(dst[n:n+int(k)], p.gen, max(p.left, p.limit-min(at, p.limit)))
		}
		n += int(k)
		p.left -= k
		p.issued += k
	}
	return n
}

func fill(out []sim.Op, gen func() (uint64, bool)) {
	for i := range out {
		out[i].VPN, out[i].Write = gen()
	}
}

// Run-ahead sizing. A fill costs a goroutine start, a hand-off and the
// chunk's move to the issuing core (DESIGN.md §7). Tests lower them.
var (
	// chunkOps is the values one fill draws.
	chunkOps = 1 << 14
	// aheadMin is the least bound on the gen calls still to come for
	// which a fill draws ahead; at least 1.
	aheadMin uint64 = 1 << 18
	// cpuIdle reports whether a CPU the process may use runs no Drive
	// loop and no fill.
	cpuIdle = func() bool { return int(running.Load()) < runtime.GOMAXPROCS(0) }
)

// running counts the Drive loops and fills in progress, process-wide;
// a capture's pull counts as a Drive loop.
var running atomic.Int32

// spare is the free list of chunks, bounded at four streams' worth. A
// sync.Pool is emptied by every collection; this list keeps its chunks
// across them.
var spare = make(chan []sim.Op, 8)

func getChunk() []sim.Op {
	select {
	case c := <-spare:
		if len(c) == chunkOps {
			return c
		}
	default:
	}
	return make([]sim.Op, chunkOps)
}

func putChunk(c []sim.Op) {
	select {
	case spare <- c:
	default:
	}
}

// runAhead holds a Steady phase's values drawn ahead of the machine.
// Once it draws ahead it holds two chunks: cur, whose values
// cur[pos:end] are drawn and not yet issued, and next, which a fill
// goroutine writes while pending is set.
type runAhead struct {
	cur, next []sim.Op
	pos, end  int
	pending   bool
	filled    chan int // the size of the fill in flight, once it is done
}

// draw writes gen's next len(out) values into out. bound caps the gen
// calls still to come, out's included.
func (r *runAhead) draw(out []sim.Op, gen func() (uint64, bool), bound uint64) {
	for len(out) > 0 {
		if r.pos == r.end && !r.refill(gen, bound) {
			fill(out, gen)
			return
		}
		k := copy(out, r.cur[r.pos:r.end])
		r.pos += k
		out = out[k:]
		bound -= uint64(k)
	}
}

// refill makes the next drawn values current, from the fill in flight
// or from a chunk drawn here when a fill may follow it, and starts the
// fill after them. It reports false when the stream draws inline.
func (r *runAhead) refill(gen func() (uint64, bool), bound uint64) bool {
	if r.pending {
		k := <-r.filled
		r.pending = false
		r.cur, r.next = r.next, r.cur
		r.pos, r.end = 0, k
	} else {
		if !ahead(bound) {
			return false
		}
		if r.cur == nil {
			r.cur, r.next, r.filled = getChunk(), getChunk(), make(chan int, 1)
		}
		r.pos, r.end = 0, int(min(uint64(len(r.cur)), bound))
		fill(r.cur[:r.end], gen)
	}
	if rest := bound - min(bound, uint64(r.end)); ahead(rest) {
		running.Add(1)
		r.pending = true
		go fillAhead(r.next[:min(uint64(len(r.next)), rest)], gen, r.filled)
	}
	return true
}

// release hands the chunks back when the stream ends. The chunk a fill
// still writes is left to the collector.
func (r *runAhead) release() {
	if r.cur == nil {
		return
	}
	putChunk(r.cur)
	if !r.pending {
		putChunk(r.next)
	}
	r.cur, r.next = nil, nil
}

func ahead(bound uint64) bool { return bound >= aheadMin && cpuIdle() }

// fillAhead is one fill's goroutine. The send never blocks: a stream
// has one fill in flight and filled holds one value, so a fill whose
// stream was abandoned still finishes.
func fillAhead(out []sim.Op, gen func() (uint64, bool), filled chan<- int) {
	fill(out, gen)
	running.Add(-1)
	filled <- len(out)
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
