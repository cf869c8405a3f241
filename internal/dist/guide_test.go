package dist

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// Both guided samplers must reproduce their reference bit for bit:
// StdZipf rand.Zipf, and Zipf the pre-table rejection inversion kept in
// zipfref_test.go. Each check runs the reference on a *rand.Rand and the
// guided sampler's per-draw step on Float64s of an identical script,
// and compares every value and the number of Int63 draws consumed.

// scriptSource replays a script of Int63 values, then continues with a
// seeded generator, counting every value it hands out.
type scriptSource struct {
	script []int64
	next   rand.Source
	draws  int
}

func newScriptSource(script []int64, seed int64) *scriptSource {
	return &scriptSource{script: script, next: rand.NewSource(seed)}
}

func (s *scriptSource) Int63() int64 {
	s.draws++
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.next.Int63()
}

func (s *scriptSource) Seed(int64) { panic("scriptSource: Seed") }

// guided is one distribution under test.
type guided struct {
	name string
	// ref returns the reference sampler's draw function on r.
	ref func(r *rand.Rand) func() uint64
	// step is the guided sampler's per-draw step; table its table,
	// built by the first step.
	step  func(r float64) (uint64, bool)
	table func() *table
	// rAt maps x back to the draw r whose exact inverse is x, and
	// squeeze is the first acceptance test's s.
	rAt     func(x float64) float64
	squeeze float64
	fam     family
}

func stdCase(s float64, n uint64) guided { return stdCaseV(s, 1, n) }

func stdCaseV(s, v float64, n uint64) guided {
	z := NewStdZipf(nil, s, v, n-1)
	return guided{
		name:    fmt.Sprintf("StdZipf(s=%v,v=%v,n=%d)", s, v, n),
		ref:     func(r *rand.Rand) func() uint64 { return rand.NewZipf(r, s, v, n-1).Uint64 },
		step:    z.step,
		table:   func() *table { return z.t },
		rAt:     func(x float64) float64 { return (z.h(x) - z.hxm) / z.hx0minusHxm },
		squeeze: z.s,
		fam:     z,
	}
}

func grayCase(s float64, n uint64) guided {
	z := NewZipf(nil, s, n)
	return guided{
		name:  fmt.Sprintf("Zipf(s=%v,n=%d)", s, n),
		ref:   func(r *rand.Rand) func() uint64 { return newRefZipf(r, s, n).Next },
		step:  z.step,
		table: func() *table { return z.t },
		rAt: func(x float64) float64 {
			return (z.hIntegral(x) - z.hIntegralNumElem) / (z.hIntegralX1 - z.hIntegralNumElem)
		},
		squeeze: z.sDiv,
		fam:     z,
	}
}

// draw runs step until it accepts, as the guided sampler's loop does.
func draw(step func(float64) (uint64, bool), r *rand.Rand) uint64 {
	for {
		if k, ok := step(r.Float64()); ok {
			return k
		}
	}
}

// checkSameStream draws until the script is consumed and at least
// minDraws values are out, failing on the first divergence.
func checkSameStream(t *testing.T, g guided, script []int64, seed int64, minDraws int) {
	t.Helper()
	refSrc, gotSrc := newScriptSource(script, seed), newScriptSource(script, seed)
	ref, got := g.ref(rand.New(refSrc)), rand.New(gotSrc)
	for i := 0; i < minDraws || len(refSrc.script) > 0; i++ {
		want, have := ref(), draw(g.step, got)
		if want != have || refSrc.draws != gotSrc.draws {
			t.Fatalf("%s value %d: got %d after %d draws, reference %d after %d draws",
				g.name, i, have, gotSrc.draws, want, refSrc.draws)
		}
	}
}

// around appends the Int63 values whose Float64 is r's nearest
// representable draw and the two either side of it.
func around(out []int64, r float64) []int64 {
	if !(r >= 0 && r < 1) {
		return out
	}
	// Float64 rounds an Int63 above 2^53 to 53 bits, so a representable
	// neighbour is one rounding step away.
	step := func(v uint64) uint64 { return 1 << max(0, bits.Len64(v)-53) }
	c := uint64(math.Round(r * (1 << 63)))
	for d := -2; d <= 2; d++ {
		v := c
		switch {
		case d < 0 && c >= uint64(-d)*step(c-1):
			v = c - uint64(-d)*step(c-1)
		case d < 0:
			continue
		default:
			v = c + uint64(d)*step(c)
		}
		if v < 1<<63 {
			out = append(out, int64(v))
		}
	}
	return out
}

// edgeScript lands on every guide bucket edge j/B and on the two
// representable draws either side of it.
func edgeScript() []int64 {
	var out []int64
	for j := 0; j <= guideSize; j++ {
		out = around(out, float64(j)/guideSize)
	}
	return out
}

// roundingScript lands, in every interpolated bucket of g's table, on
// the first and last places where the exact x crosses a rounding edge
// k+½ and where k-x crosses s, and on where the interpolant comes
// within its bound e of each, two representable draws either side: the
// draws nearest the decisions the bound must get right.
func roundingScript(g guided) []int64 {
	t := g.table()
	var out []int64
	for j, e := range t.guide {
		if e < guideSize {
			continue
		}
		p := t.interp[e-guideSize]
		xa := g.fam.invert(float64(j) / guideSize).x
		xb := g.fam.invert(float64(j+1) / guideSize).x
		lo, hi := min(xa, xb), max(xa, xb)
		for _, off := range []float64{0.5, -g.squeeze} {
			first := math.Ceil(lo - off)
			last := math.Floor(hi - off)
			if first > last {
				continue
			}
			for _, k := range []float64{first, last} {
				x := k + off
				out = around(out, g.rAt(x))
				// y = x + ½ + koff; the interpolant's y at the
				// crossing's x, then ± its bound.
				y := x + p.c0 - xa
				for _, d := range []float64{-float64(p.e), float64(p.e)} {
					if tt, ok := solve(p, y+d); ok {
						out = around(out, (float64(j)+tt)/guideSize)
					}
				}
				if first == last {
					break
				}
			}
		}
	}
	return out
}

// solve finds t in [0, 1] with p's y(t) = y by bisection, if y(0) and
// y(1) bracket it.
func solve(p interp, y float64) (float64, bool) {
	f := func(t float64) float64 { return p.c0 + t*(p.c1+t*float64(p.c2)) - y }
	a, b := 0.0, 1.0
	fa, fb := f(a), f(b)
	if fa*fb > 0 || math.IsNaN(fa*fb) {
		return 0, false
	}
	for i := 0; i < 60; i++ {
		m := (a + b) / 2
		if fm := f(m); (fm > 0) == (fa > 0) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return a, true
}

// modelCases reads the (s, n) of every sampler the Table 2 models build.
func modelCases(t *testing.T) []guided {
	f, err := os.Open("testdata/model_zipfs.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []guided
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var s float64
		var n uint64
		if _, err := fmt.Sscan(line, &s, &n); err != nil {
			t.Fatalf("model_zipfs.txt %q: %v", line, err)
		}
		out = append(out, stdCase(s, n))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// stdCases covers every sampler the models build, plus the degenerate
// n = 1, 2, 3, a steep s = 2.5, and rand.Zipf's offset v above 1.
func stdCases(t *testing.T) []guided {
	out := modelCases(t)
	for _, c := range []struct {
		s, v float64
		n    uint64
	}{
		{1.05, 1, 1}, {1.15, 1, 2}, {1.45, 1, 3}, {2.5, 1, 1}, {2.5, 1, 3}, {2.5, 1, 4096},
		{1.2, 1, 60_000}, {1.25, 1, 400_001}, {1.3, 8, 100_000}, {2.5, 8, 4096},
	} {
		out = append(out, stdCaseV(c.s, c.v, c.n))
	}
	return out
}

// grayCases covers every mix the scenario generator can draw (its five
// exponents over 1-16 MB regions of 4KB pages), plus s = 0.01, 0.99, 1
// (the logarithmic branch) and 2.5 at n = 1, 2, 3 and 1000.
func grayCases() []guided {
	var out []guided
	for _, s := range []float64{0.6, 0.8, 0.99, 1.1, 1.3} {
		for mb := uint64(1); mb <= 16; mb++ {
			out = append(out, grayCase(s, mb<<8))
		}
	}
	for _, s := range []float64{0.01, 0.99, 1, 2.5} {
		for _, n := range []uint64{1, 2, 3, 1000} {
			out = append(out, grayCase(s, n))
		}
	}
	return out
}

func TestStdZipfBucketEdges(t *testing.T) {
	script := edgeScript()
	for _, g := range stdCases(t) {
		checkSameStream(t, g, script, 1, 0)
	}
}

func TestZipfBucketEdges(t *testing.T) {
	script := edgeScript()
	for _, g := range grayCases() {
		checkSameStream(t, g, script, 1, 0)
	}
}

func TestGuideRoundingEdges(t *testing.T) {
	for _, g := range append(stdCases(t), grayCases()...) {
		g.step(0.5) // builds the table
		checkSameStream(t, g, roundingScript(g), 1, 0)
	}
}

func TestStdZipfMatchesRandZipf(t *testing.T) {
	for _, g := range stdCases(t) {
		for _, seed := range []int64{1, 42} {
			checkSameStream(t, g, nil, seed, 100_000)
		}
	}
}

func TestZipfMatchesReference(t *testing.T) {
	for _, g := range grayCases() {
		for _, seed := range []int64{1, 42} {
			checkSameStream(t, g, nil, seed, 100_000)
		}
	}
}

// TestGuidedSamplersMatchOnRand draws whole values through each
// sampler's own loop on a Rand against the reference on a *rand.Rand
// from the same seed.
func TestGuidedSamplersMatchOnRand(t *testing.T) {
	ref := rand.New(rand.NewSource(9))
	got := NewRand(9)
	rz, gz := rand.NewZipf(ref, 1.15, 1, 115_895), NewStdZipf(got, 1.15, 1, 115_895)
	rm, gm := newRefZipf(ref, 0.99, 4096), NewZipf(got, 0.99, 4096)
	for i := 0; i < 50_000; i++ {
		if want, have := rz.Uint64(), gz.Uint64(); want != have {
			t.Fatalf("StdZipf draw %d: got %d, rand.Zipf %d", i, have, want)
		}
		if want, have := rm.Next(), gm.Next(); want != have {
			t.Fatalf("Zipf draw %d: got %d, reference %d", i, have, want)
		}
	}
	if ref.Int63() != got.Int63() {
		t.Fatal("generators out of step")
	}
}

func TestNewStdZipfRejectsLikeRandZipf(t *testing.T) {
	rng := NewRand(1)
	for _, c := range []struct{ s, v float64 }{{1, 1}, {0.99, 1}, {1.2, 0.5}} {
		if z := NewStdZipf(rng, c.s, c.v, 10); z != nil {
			t.Fatalf("NewStdZipf(s=%v, v=%v) = %v, want nil as rand.NewZipf", c.s, c.v, z)
		}
	}
}

// withTables runs f against a fresh table cache with the given budget.
func withTables(budget int, f func(c *tableCache)) {
	saved := tables
	tables = &tableCache{budget: budget}
	defer func() { tables = saved }()
	f(tables)
}

// TestTablesBuiltOnFirstDraw checks that building a sampler builds no
// table and its first draw builds exactly one, shared by a second
// sampler of the same distribution, which allocates no table of its own.
func TestTablesBuiltOnFirstDraw(t *testing.T) {
	withTables(tableBudget, func(c *tableCache) {
		a, b := NewZipf(NewRand(1), 0.99, 4096), NewStdZipf(NewRand(1), 1.15, 1, 11_113)
		if len(c.m) != 0 {
			t.Fatalf("constructing samplers built %d tables", len(c.m))
		}
		a.Next()
		b.Uint64()
		if len(c.m) != 2 {
			t.Fatalf("first draws built %d tables, want 2", len(c.m))
		}
		rng := NewRand(2)
		allocs := testing.AllocsPerRun(20, func() {
			z := NewZipf(rng, 0.99, 4096)
			z.Next()
			if z.t != a.t {
				t.Fatal("second sampler did not share the table")
			}
		})
		if allocs > 1 {
			t.Fatalf("a second sampler of a built distribution allocates %v times, want at most 1 (itself)", allocs)
		}
	})
}

// TestTablesConcurrentBuilds has several goroutines draw first from the
// same and from different distributions at once: each distribution
// gets one table, equal to one built privately.
func TestTablesConcurrentBuilds(t *testing.T) {
	withTables(tableBudget, func(c *tableCache) {
		params := []float64{0.6, 0.99, 1.3}
		const per = 4
		got := make([]*table, len(params)*per)
		done := make(chan struct{})
		for i := range got {
			go func(i int) {
				defer func() { done <- struct{}{} }()
				z := NewZipf(NewRand(int64(i)), params[i%len(params)], 2048)
				z.Next()
				got[i] = z.t
			}(i)
		}
		for range got {
			<-done
		}
		for i, tb := range got {
			if tb != got[i%len(params)] {
				t.Fatalf("s=%v: samplers got different tables", params[i%len(params)])
			}
		}
		for i, s := range params {
			want := build(NewZipf(nil, s, 2048))
			if !equalTables(got[i], want) {
				t.Fatalf("s=%v: shared table differs from a private build", s)
			}
		}
		if len(c.m) != len(params) {
			t.Fatalf("cache holds %d tables, want %d", len(c.m), len(params))
		}
	})
}

func equalTables(a, b *table) bool {
	if a.guide != b.guide || a.low != b.low || len(a.interp) != len(b.interp) {
		return false
	}
	for i := range a.interp {
		if a.interp[i] != b.interp[i] {
			return false
		}
	}
	return true
}

// TestTablesPastBudget checks that past the byte budget a sampler
// builds a private table and draws the same stream.
func TestTablesPastBudget(t *testing.T) {
	withTables(0, func(c *tableCache) {
		for _, g := range []guided{grayCase(0.99, 4096), stdCase(1.15, 115_896)} {
			checkSameStream(t, g, nil, 3, 50_000)
			if len(c.m) != 0 || g.table() == nil {
				t.Fatalf("%s: past the budget the table must be private", g.name)
			}
		}
	})
}

// BenchmarkZipf compares the guided samplers with their references:
// StdZipf against rand.Zipf on the Silo model's sampler (s = 1.15 over
// its heap pages at the default scale), and the mix sampler Zipf
// against its pre-table copy on a scenario mix arm (s = 0.99 over a
// 16 MB region). Each guided sampler runs once before timing, so the
// reported rounds measure the steady state, with its table built.
func BenchmarkZipf(b *testing.B) {
	const siloS, siloHeapPages = 1.15, 115_896
	const mixS, mixPages = 0.99, 4096
	b.Run("stdlib", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), siloS, 1, siloHeapPages-1)
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += z.Uint64()
		}
		sink = sum
	})
	guidedZ := NewStdZipf(NewRand(1), siloS, 1, siloHeapPages-1)
	guidedZ.Uint64()
	b.Run("guided", func(b *testing.B) {
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += guidedZ.Uint64()
		}
		sink = sum
	})
	b.Run("mix-exact", func(b *testing.B) {
		z := newRefZipf(rand.New(rand.NewSource(1)), mixS, mixPages)
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += z.Next()
		}
		sink = sum
	})
	mix := NewZipf(NewRand(1), mixS, mixPages)
	mix.Next()
	b.Run("mix-guided", func(b *testing.B) {
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += mix.Next()
		}
		sink = sum
	})
}

var sink uint64
