package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"memtis/internal/dist"
	"memtis/internal/sim"
	"memtis/internal/vm"
)

// setRunAhead sets the run-ahead hooks until the test ends: with on,
// every fill of at least min values draws ahead in chunks of chunk
// ops; without it, none does.
func setRunAhead(t testing.TB, on bool, chunk int, min uint64) {
	t.Helper()
	oldChunk, oldMin, oldIdle := chunkOps, aheadMin, cpuIdle
	t.Cleanup(func() { chunkOps, aheadMin, cpuIdle = oldChunk, oldMin, oldIdle })
	chunkOps, aheadMin = chunk, min
	cpuIdle = func() bool { return on }
}

// genCounter counts a generator's calls and flags two calls at once.
type genCounter struct {
	calls      int
	busy       atomic.Bool
	concurrent atomic.Bool
}

func (c *genCounter) wrap(gen func() (uint64, bool)) func() (uint64, bool) {
	return func() (uint64, bool) {
		if !c.busy.CompareAndSwap(false, true) {
			c.concurrent.Store(true)
		}
		c.calls++
		v, w := gen()
		c.busy.Store(false)
		return v, w
	}
}

// steadyGens builds, for each generator the differential test covers,
// a fresh copy with the same state on every call.
func steadyGens(t *testing.T) map[string]func() func() (uint64, bool) {
	t.Helper()
	silo := func() func() (uint64, bool) {
		w := MustNew("silo")
		s := w.Stream(machineFor(w.Spec(), 42), 1<<20).(*seq)
		return s.ss[len(s.ss)-1].(*sweep).gen
	}
	regions := map[string]vm.Region{
		"heap": {BaseVPN: 1 << 20, Pages: 4096},
		"log":  {BaseVPN: 1 << 22, Pages: 777},
	}
	phases := []SyntheticPhase{
		{Region: "heap", Weight: 5, Dist: "zipf", S: 0.99, Scramble: true, WritePercent: 10},
		{Region: "heap", Weight: 2, Dist: "uniform", WritePercent: 50},
		{Region: "log", Weight: 2, Dist: "seq", WritePercent: 100},
		{Region: "log", Weight: 1, Dist: "zipf", S: 1.2},
	}
	mix := func() func() (uint64, bool) {
		return Mix(dist.NewRand(7), phases, regions, 1<<20).(*sweep).gen
	}
	count := func() func() (uint64, bool) {
		var i uint64
		return func() (uint64, bool) {
			i++
			return i * 2654435761 >> 8, i%3 == 0
		}
	}
	return map[string]func() func() (uint64, bool){"count": count, "silo": silo, "mix": mix}
}

// trajectory is how a driver pulls a steady phase: the space's count
// when it starts, the phase's limit, each pull's length (a Drive that
// ends mid-batch suspends the stream there) and the accesses other
// agents issue to the space before a pull (a scheduler's grow touches).
type trajectory struct {
	start, limit uint64
	size         func(r *rand.Rand) int
	foreign      func(r *rand.Rand) uint64
}

// pull drives s along tr and returns the ops it issued.
func (tr trajectory) pull(s Stream) []sim.Op {
	r := rand.New(rand.NewSource(int64(tr.limit)))
	buf := make([]sim.Op, BatchSize)
	done := tr.start
	var out []sim.Op
	for {
		if tr.foreign != nil {
			done += tr.foreign(r)
		}
		n := s.Next(buf[:tr.size(r)], done)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
		done += uint64(n)
	}
}

func fullBatches(*rand.Rand) int { return BatchSize }

func anyEnd(r *rand.Rand) int {
	if r.Intn(4) == 0 {
		return 1 + r.Intn(3)
	}
	return 1 + r.Intn(BatchSize)
}

func growTouches(r *rand.Rand) uint64 {
	if r.Intn(6) == 0 {
		return uint64(r.Intn(700))
	}
	return 0
}

// TestSteadyMatchesSweep holds Steady to Sweep(gen, limit, Unbounded,
// BatchSize): the same ops along every trajectory, with run-ahead
// forced on (several chunk sizes, with and without a threshold) and
// forced off, and on lone streams exactly Sweep's gen calls, so no
// value is drawn past the end.
func TestSteadyMatchesSweep(t *testing.T) {
	const chunk = 100
	trajs := map[string]trajectory{
		"lone":             {start: 50, limit: 50 + 9000, size: fullBatches},
		"suspended":        {start: 0, limit: 7777, size: anyEnd},
		"foreign":          {start: 10, limit: 12000, size: anyEnd, foreign: growTouches},
		"foreign-past-end": {start: 0, limit: 3000, size: fullBatches, foreign: func(*rand.Rand) uint64 { return 97 }},
		"zero":             {start: 300, limit: 300, size: fullBatches},
		"started-past":     {start: 500, limit: 300, size: fullBatches},
	}
	for _, l := range []uint64{1, chunk - 1, chunk, chunk + 1, 2 * chunk, 2*chunk + 1, BatchSize, BatchSize + chunk, 3*chunk + 37} {
		trajs[fmt.Sprintf("limit-%d", l)] = trajectory{start: 1000, limit: 1000 + l, size: anyEnd}
	}
	modes := []struct {
		name  string
		on    bool
		chunk int
		min   uint64
	}{
		{"inline", false, chunk, 1},
		{"ahead", true, chunk, 1},
		{"ahead-chunk1", true, 1, 1},
		{"ahead-chunk7", true, 7, 1},
		{"ahead-until-500", true, chunk, 500},
	}
	for gname, newGen := range steadyGens(t) {
		for tname, tr := range trajs {
			var ref genCounter
			want := tr.pull(Sweep(ref.wrap(newGen()), tr.limit, Unbounded, BatchSize))
			for _, md := range modes {
				t.Run(gname+"/"+tname+"/"+md.name, func(t *testing.T) {
					setRunAhead(t, md.on, md.chunk, md.min)
					var got genCounter
					s := Steady(got.wrap(newGen()), tr.limit).(*sweep)
					ops := tr.pull(s)
					if s.ra.pending {
						<-s.ra.filled // a fill drawing past the end; wait before reading its count
					}
					if len(ops) != len(want) {
						t.Fatalf("issued %d ops, Sweep issued %d", len(ops), len(want))
					}
					for i := range ops {
						if ops[i] != want[i] {
							t.Fatalf("op %d = %+v, Sweep issued %+v", i, ops[i], want[i])
						}
					}
					if got.concurrent.Load() {
						t.Fatal("gen was called concurrently with itself")
					}
					switch {
					case tr.foreign == nil && got.calls != ref.calls:
						t.Fatalf("lone stream made %d gen calls, Sweep made %d", got.calls, ref.calls)
					case got.calls < ref.calls || got.calls > ref.calls+2*md.chunk:
						t.Fatalf("made %d gen calls, Sweep made %d (at most two chunks more allowed)", got.calls, ref.calls)
					}
				})
			}
		}
	}
}

// TestSteadyReleaseKeepsChunkInFlight: a stream that draws ahead to its
// end hands both chunks back to the free list. One that ends while a
// fill still writes its next chunk (another agent advanced the space
// past the limit) hands back only the chunk it issued from.
func TestSteadyReleaseKeepsChunkInFlight(t *testing.T) {
	setRunAhead(t, true, BatchSize, 1)
	for len(spare) > 0 {
		<-spare
	}
	var c uint64
	lone := trajectory{limit: 10 * BatchSize, size: fullBatches}
	lone.pull(Steady(func() (uint64, bool) { c++; return c, false }, lone.limit))
	if n := len(spare); n != 2 {
		t.Fatalf("a lone stream handed back %d chunks, want 2", n)
	}
	for len(spare) > 0 {
		<-spare
	}
	unblock := make(chan struct{})
	var i uint64
	s := Steady(func() (uint64, bool) {
		i++
		if i == BatchSize+1 {
			<-unblock // the fill of the second chunk waits here
		}
		return i, false
	}, 2*BatchSize).(*sweep)
	buf := make([]sim.Op, BatchSize)
	if n := s.Next(buf, 0); n != BatchSize || !s.ra.pending {
		t.Fatalf("first round issued %d ops, fill in flight %v", n, s.ra.pending)
	}
	inFlight := &s.ra.next[0]
	if n := s.Next(buf, 3*BatchSize); n != 0 {
		t.Fatalf("issued %d ops past the limit", n)
	}
	close(unblock)
	<-s.ra.filled
	for len(spare) > 0 {
		if c := <-spare; &c[0] == inFlight {
			t.Fatal("the chunk a fill was writing went back to the free list")
		}
	}
}

// TestSteadyDrawsAheadOnlyOnIdleCPU runs a mix under Drive on a real
// machine with the real CPU gate: a fill draws ahead (a gen call runs
// while the Drive loop does) only when GOMAXPROCS leaves a CPU free,
// and the issued ops do not depend on it.
func TestSteadyDrawsAheadOnlyOnIdleCPU(t *testing.T) {
	oldChunk, oldMin := chunkOps, aheadMin
	t.Cleanup(func() { chunkOps, aheadMin = oldChunk, oldMin })
	chunkOps, aheadMin = 1000, 1
	run := func(procs int) (ops []sim.Op, drewAhead bool) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m := sim.NewMachine(sim.Config{FastBytes: 8 << 20, CapBytes: 64 << 20, THP: true, Seed: 3}, nil)
		m.AccessObserver = func(vpn uint64, write bool, _ uint64) { ops = append(ops, sim.Op{VPN: vpn, Write: write}) }
		regions := map[string]vm.Region{"r": m.Reserve(16 << 20)}
		gen := Mix(dist.NewRand(5), []SyntheticPhase{{Region: "r", Weight: 1, Dist: "zipf", S: 0.99}}, regions, 40_000).(*sweep).gen
		s := Steady(func() (uint64, bool) {
			if running.Load() > 1 {
				drewAhead = true
			}
			return gen()
		}, 40_000)
		Drive(m, s, 1<<62, make([]sim.Op, BatchSize))
		return ops, drewAhead
	}
	one, ahead1 := run(1)
	two, ahead2 := run(2)
	if ahead1 {
		t.Error("a fill drew ahead with GOMAXPROCS 1")
	}
	if !ahead2 {
		t.Error("no fill drew ahead with GOMAXPROCS 2 and one Drive loop")
	}
	if len(one) != 40_000 || len(two) != len(one) {
		t.Fatalf("issued %d and %d ops, want 40000", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("op %d: %+v inline, %+v drawn ahead", i, one[i], two[i])
		}
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("running = %d after every Drive returned", n)
	}
}

// BenchmarkSteadyFill measures a fill's fixed cost. A nearly free
// generator's stream is drawn inline, and drawn ahead with the issuing
// side waiting on every fill; the difference per chunk is the
// goroutine start, the hand-off and the chunk's move between cores.
// Run it at -cpu 2.
func BenchmarkSteadyFill(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "inline"
		if on {
			name = "ahead"
		}
		b.Run(name, func(b *testing.B) {
			setRunAhead(b, on, 1<<14, 1)
			const n = 1 << 20
			buf := make([]sim.Op, BatchSize)
			for i := 0; i < b.N; i++ {
				var c uint64
				s := Steady(func() (uint64, bool) { c++; return c, c&7 == 0 }, n)
				for done := uint64(0); ; {
					k := s.Next(buf, done)
					if k == 0 {
						break
					}
					done += uint64(k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n>>14), "ns/chunk")
		})
	}
}
