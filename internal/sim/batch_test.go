package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// TestAccessBatchMatchesSequential pins the AccessBatch contract: the
// batch API is a pure loop-bookkeeping amortisation, so a batched run
// must be byte-identical to the same ops issued one Access at a time —
// same event trace (fault emits carry virtual-time stamps, so any cost
// or ordering divergence shows up), same clock, same tick count, same
// TLB counters.
func TestAccessBatchMatchesSequential(t *testing.T) {
	type outcome struct {
		trace  []byte
		now    uint64
		n      uint64
		ticks  int
		tlb    uint64
		series int
	}
	run := func(batched bool) outcome {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		cfg := testCfg()
		cfg.TickNS = 50_000
		cfg.RecordNS = 70_000
		cfg.Trace = obs.NewTracer(sink)
		pol := &countingPolicy{place: tier.NoTier, stall: 3}
		m := NewMachine(cfg, pol)
		r := m.Reserve(4 << 20)
		rng := rand.New(rand.NewSource(99))
		ops := make([]Op, 4096)
		for i := range ops {
			ops[i] = Op{VPN: r.BaseVPN + rng.Uint64()%r.Pages, Write: rng.Intn(2) == 0}
		}
		if batched {
			// Uneven chunk sizes: batch boundaries must be invisible.
			for i, step := 0, 1; i < len(ops); i, step = i+step, step*3+1 {
				end := i + step
				if end > len(ops) {
					end = len(ops)
				}
				m.AccessBatch(ops[i:end])
			}
		} else {
			for _, op := range ops {
				m.Access(op.VPN, op.Write)
			}
		}
		sink.Flush()
		st := m.TLB.Stats()
		return outcome{
			trace:  buf.Bytes(),
			now:    m.Now(),
			n:      m.Accesses(),
			ticks:  pol.ticks,
			tlb:    st.Lookups4K + st.Misses4K + st.Lookups2M + st.Misses2M,
			series: len(m.series),
		}
	}
	seq := run(false)
	bat := run(true)
	if !bytes.Equal(seq.trace, bat.trace) {
		t.Fatal("batched run's event trace differs from access-at-a-time")
	}
	if len(seq.trace) == 0 {
		t.Fatal("trace is empty; the comparison proved nothing")
	}
	if seq.now != bat.now || seq.n != bat.n || seq.ticks != bat.ticks ||
		seq.tlb != bat.tlb || seq.series != bat.series {
		t.Fatalf("state diverged: sequential %+v vs batched %+v", seq, bat)
	}
	if seq.ticks == 0 || seq.series == 0 {
		t.Fatalf("run too short to cross tick/sample boundaries: %+v", seq)
	}
}

// snapshotPolicy declares the bypass with no sampler (FastSampled), so
// AccessBatch's steady-state loop runs, and at every tick records what
// a policy can read of the access counts: every space's, then the
// current space's through Accesses, then the machine's TotalAccesses.
type snapshotPolicy struct {
	countingPolicy
	snaps []uint64
}

func (p *snapshotPolicy) SampleGate() *pebs.Sampler { return nil }

func (p *snapshotPolicy) Tick(now uint64) {
	p.countingPolicy.Tick(now)
	for i := 0; i < p.m.NumSpaces(); i++ {
		p.snaps = append(p.snaps, p.m.SpaceAccesses(i))
	}
	p.snaps = append(p.snaps, p.m.Accesses(), p.m.TotalAccesses())
}

// TestAccessBatchMatchesSequentialMultiSpace is the multi-space sibling
// of TestAccessBatchMatchesSequential, at one space and at three:
// UseSpace between uneven batches, and a policy reading per-space
// counts at every tick. AccessBatch credits the current space with a
// run of accesses at once, where it flushes its counters; the credit
// must land before every tick, or a mid-batch tick reads stale counts.
// Every machine keeps space 0's count, so at every tick the spaces'
// counts must sum to the machine's total, at one space as at three.
func TestAccessBatchMatchesSequentialMultiSpace(t *testing.T) {
	for _, spaces := range []int{1, 3} {
		t.Run(fmt.Sprintf("spaces=%d", spaces), func(t *testing.T) { testBatchSpaces(t, spaces) })
	}
}

func testBatchSpaces(t *testing.T, spaces int) {
	type outcome struct {
		now, total uint64
		perSpace   [3]uint64
		ticks      int
	}
	run := func(batched bool) ([]uint64, outcome) {
		cfg := testCfg()
		cfg.TickNS = 20_000
		pol := &snapshotPolicy{countingPolicy: countingPolicy{place: tier.NoTier}}
		m := NewMachine(cfg, pol)
		regions := make([]vm.Region, spaces)
		for i, bytes := range []uint64{2 << 20, 1 << 20, 2 << 20}[:spaces] {
			if i > 0 {
				m.UseSpace(m.AddSpace(fmt.Sprintf("s%d", i)))
			}
			regions[i] = m.Reserve(bytes)
		}
		rng := rand.New(rand.NewSource(7))
		ops := make([]Op, 700)
		for step := 0; step < 80; step++ {
			sp := rng.Intn(len(regions))
			m.UseSpace(sp)
			r := regions[sp]
			n := 1 + rng.Intn(len(ops))
			for i := range ops[:n] {
				ops[i] = Op{VPN: r.BaseVPN + rng.Uint64()%r.Pages, Write: rng.Intn(8) == 0}
			}
			if batched {
				m.AccessBatch(ops[:n])
			} else {
				for _, op := range ops[:n] {
					m.Access(op.VPN, op.Write)
				}
			}
		}
		o := outcome{now: m.Now(), total: m.TotalAccesses(), ticks: pol.ticks}
		for i := range spaces {
			o.perSpace[i] = m.SpaceAccesses(i)
		}
		return pol.snaps, o
	}
	seqSnaps, seq := run(false)
	batSnaps, bat := run(true)
	if seq.ticks < 100 {
		t.Fatalf("only %d ticks: too few to land inside batches", seq.ticks)
	}
	if seq.perSpace[0]+seq.perSpace[1]+seq.perSpace[2] != seq.total {
		t.Fatalf("per-space counts %v do not sum to the total %d", seq.perSpace, seq.total)
	}
	// Each tick records spaces+2 words: every space's count, then
	// Accesses, then TotalAccesses.
	words := spaces + 2
	for i := 0; i+words <= len(batSnaps); i += words {
		var sum uint64
		for _, n := range batSnaps[i : i+spaces] {
			sum += n
		}
		if total := batSnaps[i+words-1]; sum != total {
			t.Fatalf("tick %d: space counts %v sum to %d, TotalAccesses %d", i/words, batSnaps[i:i+spaces], sum, total)
		}
	}
	if !slices.Equal(seqSnaps, batSnaps) {
		for i := range min(len(seqSnaps), len(batSnaps)) {
			if seqSnaps[i] != batSnaps[i] {
				t.Fatalf("tick %d, word %d: sequential %d, batched %d", i/words, i%words, seqSnaps[i], batSnaps[i])
			}
		}
		t.Fatalf("batched run recorded %d snapshot words, sequential %d", len(batSnaps), len(seqSnaps))
	}
	if seq != bat {
		t.Fatalf("state diverged: sequential %+v vs batched %+v", seq, bat)
	}
}
