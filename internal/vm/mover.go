package vm

import (
	"memtis/internal/obs"
	"memtis/internal/tier"
)

// This file is the rate-limited background mover: the machine-level
// worker that turns migration from an instantaneous policy-side charge
// into scheduled work. Policies enqueue tasks; the mover executes them
// in FIFO order against a migration-bandwidth budget that accrues per
// virtual-time window (Nomad's throttled asynchronous migration,
// DESIGN.md §11). Everything is pure arithmetic over the virtual
// clock, so a fixed (seed, access stream) pair drains the queue
// identically regardless of wall-clock scheduling or worker count.

// moverTask is one queued migration. src records the page's tier at
// enqueue time: a task whose page has moved (or died) since is stale
// and is dropped rather than executed against a different hop than the
// policy scored.
type moverTask struct {
	pg       *Page
	src, dst tier.ID
	attempts int
}

// Mover executes queued page migrations against a windowed bandwidth
// budget. A nil *Mover is valid: every method is the disabled case, so
// the policy helpers need no guards.
type Mover struct {
	cfg tier.MoverConfig
	mem *Memory

	queue []moverTask
	head  int

	tokens  uint64 // unspent budget, bytes
	started bool
	lastNS  uint64 // clock at last accrual
	accNS   uint64 // sub-window remainder carried between accruals

	// Outcome counters, registered cells under "mover/". granted_bytes
	// only grows by whole-window grants clipped at the burst cap, and
	// moved_bytes + wasted_bytes only shrink the same token pool, so
	// moved_bytes + wasted_bytes <= granted_bytes is the budget
	// invariant the conformance suite asserts.
	ctrMoved, ctrMovedBytes, ctrGranted, ctrWasted *uint64
	ctrEnq, ctrRejFull, ctrStale, ctrNoSpace       *uint64
	ctrDenied, ctrAborted, ctrDropped, ctrDeferred *uint64
	gQueueLen                                      *uint64
}

// NewMover builds a mover from cfg, returning nil — and registering
// nothing — for a disabled config. Its counters are registered under
// g: enqueued, rejected_full, moved_pages, moved_bytes, wasted_bytes,
// granted_bytes, stale_dropped, no_space, denied, aborted, dropped,
// deferred_throttle and the queue_len gauge. The mover migrates through
// mem; when mem has a fault plan, Advance defers work inside its
// bandwidth-throttle windows (the mover competes with foreground
// migration for the same throttled link).
func NewMover(cfg tier.MoverConfig, mem *Memory, g obs.Group) *Mover {
	if !cfg.Enabled() {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Mover{
		cfg:           cfg.FillDefaults(),
		mem:           mem,
		ctrEnq:        g.Counter("enqueued"),
		ctrRejFull:    g.Counter("rejected_full"),
		ctrMoved:      g.Counter("moved_pages"),
		ctrMovedBytes: g.Counter("moved_bytes"),
		ctrWasted:     g.Counter("wasted_bytes"),
		ctrGranted:    g.Counter("granted_bytes"),
		ctrStale:      g.Counter("stale_dropped"),
		ctrNoSpace:    g.Counter("no_space"),
		ctrDenied:     g.Counter("denied"),
		ctrAborted:    g.Counter("aborted"),
		ctrDropped:    g.Counter("dropped"),
		ctrDeferred:   g.Counter("deferred_throttle"),
		gQueueLen:     g.Gauge("queue_len"),
	}
}

// Enabled reports whether the mover is active (false on nil).
func (mv *Mover) Enabled() bool { return mv != nil }

// QueueLen returns the number of pending tasks.
func (mv *Mover) QueueLen() int {
	if mv == nil {
		return 0
	}
	return len(mv.queue) - mv.head
}

// Enqueue queues a migration of p, a page of any space sharing the
// mover's memory, to dst. It reports whether the task was accepted —
// false when the mover is disabled (the caller must migrate inline) or
// the queue is full.
func (mv *Mover) Enqueue(p *Page, dst tier.ID) bool {
	if mv == nil {
		return false
	}
	if p.dead || p.Tier == dst {
		return true // nothing to do; treat as accepted and settled
	}
	if mv.QueueLen() >= mv.cfg.QueueCap {
		*mv.ctrRejFull++
		return false
	}
	mv.queue = append(mv.queue, moverTask{pg: p, src: p.Tier, dst: dst})
	*mv.ctrEnq++
	*mv.gQueueLen = uint64(mv.QueueLen())
	return true
}

// burstCap bounds the unspent token pool: two windows of budget, but
// never less than one huge page so a sub-2MB budget can still move
// huge pages by saving across windows.
func (mv *Mover) burstCap() uint64 {
	cap := 2 * mv.cfg.BytesPerWindow
	if cap < tier.HugePageSize {
		cap = tier.HugePageSize
	}
	return cap
}

// accrue grants whole-window budget for the virtual time elapsed since
// the last call, carrying the sub-window remainder, and returns tokens
// to their burst-capped level. The first call grants one full window
// so a freshly built machine can move immediately.
func (mv *Mover) accrue(now uint64) {
	if !mv.started {
		mv.started = true
		mv.lastNS = now
		mv.grant(mv.cfg.BytesPerWindow)
		return
	}
	if now <= mv.lastNS {
		return
	}
	mv.accNS += now - mv.lastNS
	mv.lastNS = now
	if whole := mv.accNS / mv.cfg.WindowNS; whole > 0 {
		mv.accNS -= whole * mv.cfg.WindowNS
		// Saturate rather than overflow on huge idle gaps; the burst
		// cap clips the granted amount right after.
		grant := whole * mv.cfg.BytesPerWindow
		if whole != 0 && grant/whole != mv.cfg.BytesPerWindow {
			grant = mv.burstCap()
		}
		mv.grant(grant)
	}
}

// grant adds budget, clipping at the burst cap; only the clipped
// amount counts as granted so moved_bytes + wasted_bytes <=
// granted_bytes stays exact.
func (mv *Mover) grant(bytes uint64) {
	room := mv.burstCap() - mv.tokens
	if bytes > room {
		bytes = room
	}
	mv.tokens += bytes
	*mv.ctrGranted += bytes
}

// Advance runs the mover up to virtual time now: accrues budget,
// defers inside throttle windows, and executes queued tasks in FIFO
// order while the budget lasts. It returns the virtual nanoseconds of
// copy work performed, which the machine charges as background daemon
// time (never to the application's critical path).
func (mv *Mover) Advance(now uint64) (spentNS uint64) {
	if mv == nil {
		return 0
	}
	mv.accrue(now)
	if mv.QueueLen() == 0 {
		return 0
	}
	if mv.mem.Faults.ThrottleActive(now) {
		// The link is throttled: hold queued work for the window's end
		// rather than paying the inflated copy cost (budget keeps
		// accruing, bounded by the burst cap).
		*mv.ctrDeferred++
		return 0
	}
	for mv.head < len(mv.queue) {
		t := &mv.queue[mv.head]
		if t.pg.dead || t.pg.Tier != t.src || t.pg.Tier == t.dst {
			*mv.ctrStale++
			mv.head++
			continue
		}
		bytes := t.pg.Bytes()
		if bytes > mv.tokens {
			break // out of budget; resume next window
		}
		ns, st := mv.mem.MigrateTx(t.pg, t.dst)
		spentNS += ns
		switch st {
		case MigrateOK:
			mv.tokens -= bytes
			*mv.ctrMoved++
			*mv.ctrMovedBytes += bytes
			mv.head++
		case MigrateAborted:
			// The wasted copy consumed real bandwidth; charge it to the
			// budget and retry within the fault plan's bound.
			mv.tokens -= bytes
			*mv.ctrWasted += bytes
			*mv.ctrAborted++
			t.attempts++
			if t.attempts > mv.mem.Faults.MaxRetries() {
				*mv.ctrDropped++
				mv.head++
			}
		case MigrateNoSpace:
			*mv.ctrNoSpace++
			mv.head++
		case MigrateDenied:
			*mv.ctrDenied++
			mv.head++
		}
	}
	// Compact the drained prefix once it dominates the slice.
	if mv.head > 64 && mv.head*2 > len(mv.queue) {
		n := copy(mv.queue, mv.queue[mv.head:])
		mv.queue = mv.queue[:n]
		mv.head = 0
	}
	*mv.gQueueLen = uint64(mv.QueueLen())
	return spentNS
}
