package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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
	for i := 0; i < len(p.m.Spaces()); i++ {
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

// driveSpaces reserves a region in each of spaces address spaces (1 to
// 3) and issues 80 seeded runs of up to 700 ops, each in a randomly
// chosen space: one AccessBatch per run, or one Access per op.
func driveSpaces(m *Machine, spaces int, batched bool) {
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
		driveSpaces(m, spaces, batched)
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

// windowFaults is a fault plan whose throttle windows and fast-tier
// stall bursts open and close every few dozen accesses, inside the
// batches driveSpaces issues.
func windowFaults() tier.FaultConfig {
	return tier.FaultConfig{
		ThrottlePeriodNS: 30_000, ThrottleDutyNS: 7_000,
		StallPeriodNS: 23_000, StallDutyNS: 5_000, StallTier: tier.FastTier, StallNS: 40,
	}
}

// TestEveryAccessesFiresOnCount: the EveryAccesses callback runs after
// exactly every n-th machine-wide access, at the same clock and tick
// as when every op goes through Access: through AccessBatch's fast
// loop and its Access fallback (first touches and first writes), with
// spaces switched between batches, under a fault plan, and with a
// policy that declares no bypass, whose batches all fall back.
func TestEveryAccessesFiresOnCount(t *testing.T) {
	const n = 97
	type call struct {
		total, now uint64
		ticks      int
	}
	for _, tc := range []struct {
		name     string
		spaces   int
		faults   bool
		fullPath bool
	}{
		{"one space", 1, false, false},
		{"three spaces", 3, false, false},
		{"fault plan", 1, true, false},
		{"three spaces under a fault plan", 3, true, false},
		{"no bypass", 1, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(batched bool) ([]call, uint64) {
				cfg := testCfg()
				cfg.TickNS = 20_000
				if tc.faults {
					cfg.Faults = windowFaults()
				}
				snap := &snapshotPolicy{countingPolicy: countingPolicy{place: tier.NoTier}}
				counting := &snap.countingPolicy
				var pol Policy = snap
				if tc.fullPath {
					pol = counting
				}
				m := NewMachine(cfg, pol)
				var calls []call
				m.EveryAccesses(n, func() {
					calls = append(calls, call{m.TotalAccesses(), m.Now(), counting.ticks})
				})
				driveSpaces(m, tc.spaces, batched)
				return calls, m.TotalAccesses()
			}
			seq, total := run(false)
			bat, _ := run(true)
			if want := total / n; uint64(len(seq)) != want || want < 100 {
				t.Fatalf("callback ran %d times over %d accesses, want %d (and at least 100)", len(seq), total, want)
			}
			for i, c := range seq {
				if c.total != uint64(i+1)*n {
					t.Fatalf("call %d at access %d, want %d", i, c.total, uint64(i+1)*n)
				}
			}
			if !slices.Equal(seq, bat) {
				for i := range min(len(seq), len(bat)) {
					if seq[i] != bat[i] {
						t.Fatalf("call %d: access at a time %+v, batched %+v", i, seq[i], bat[i])
					}
				}
				t.Fatalf("batched run made %d calls, access at a time %d", len(bat), len(seq))
			}
		})
	}
}

// TestEveryAccessesReplaces: a later EveryAccesses call replaces the
// callback and counts from the machine's current total; n == 0 removes
// it.
func TestEveryAccessesReplaces(t *testing.T) {
	m := NewMachine(testCfg(), nil)
	r := m.Reserve(tier.HugePageSize)
	var a, b []uint64
	m.EveryAccesses(10, func() { a = append(a, m.TotalAccesses()) })
	for range 25 {
		m.Access(r.BaseVPN, false)
	}
	m.EveryAccesses(7, func() { b = append(b, m.TotalAccesses()) })
	m.AccessBatch(make([]Op, 20))
	m.EveryAccesses(0, nil)
	m.AccessBatch(make([]Op, 50))
	if !slices.Equal(a, []uint64{10, 20}) || !slices.Equal(b, []uint64{28, 35, 42}) {
		t.Fatalf("calls at %v then %v, want [10 20] then [28 35 42]", a, b)
	}
}

// TestAccessBatchMatchesSequentialUnderFaults: with throttle windows
// and stall bursts opening and closing mid-batch, AccessBatch runs its
// fast loop between them and still simulates what one Access per op
// does: the same result, fault/* counters included, and the same event
// trace, fault_window events included.
func TestAccessBatchMatchesSequentialUnderFaults(t *testing.T) {
	run := func(batched bool) (Result, []byte) {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		cfg := testCfg()
		cfg.TickNS = 20_000
		cfg.Faults = windowFaults()
		cfg.Trace = obs.NewTracer(sink)
		m := NewMachine(cfg, &snapshotPolicy{countingPolicy: countingPolicy{place: tier.NoTier}})
		driveSpaces(m, 1, batched)
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return m.Finish("faults"), buf.Bytes()
	}
	seqRes, seqTrace := run(false)
	batRes, batTrace := run(true)
	if !reflect.DeepEqual(seqRes, batRes) {
		t.Fatalf("batched result differs from access at a time:\n seq app_ns %d %v\n bat app_ns %d %v",
			seqRes.AppNS, seqRes.Counters, batRes.AppNS, batRes.Counters)
	}
	if !bytes.Equal(seqTrace, batTrace) {
		t.Fatal("batched event trace differs from access at a time")
	}
	counters := map[string]uint64{}
	for _, c := range seqRes.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{"fault/throttle_windows", "fault/stall_windows", "fault/stall_ns"} {
		if counters[name] < 20 {
			t.Fatalf("%s = %d: too few windows to land inside batches", name, counters[name])
		}
	}
	if n := bytes.Count(seqTrace, []byte("fault_window")); uint64(n) != counters["fault/throttle_windows"]+counters["fault/stall_windows"] {
		t.Fatalf("%d fault_window events for %v", n, counters)
	}
}
