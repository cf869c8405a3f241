package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func sample(s Source, n int) map[uint64]int {
	counts := make(map[uint64]int)
	for i := 0; i < n; i++ {
		counts[s.Next()]++
	}
	return counts
}

func TestZipfInRange(t *testing.T) {
	prop := func(seed int64, nRaw uint16, sRaw uint8) bool {
		n := uint64(nRaw)%1000 + 1
		s := 0.2 + float64(sRaw%30)/10 // 0.2 .. 3.1
		z := NewZipf(NewRand(seed), s, n)
		for i := 0; i < 200; i++ {
			if v := z.Next(); v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkewMatchesTheory(t *testing.T) {
	// For s=0.99, n=1000, the YCSB-standard skew: P(0) ~ 1/H where
	// H = sum 1/(k+1)^s ~ 7.52, so the top item draws ~13% of samples.
	rng := NewRand(1)
	z := NewZipf(rng, 0.99, 1000)
	counts := sample(z, 200_000)
	var H float64
	for k := 1; k <= 1000; k++ {
		H += 1 / math.Pow(float64(k), 0.99)
	}
	want := 1 / H
	got := float64(counts[0]) / 200_000
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("P(0) = %.4f, theory %.4f", got, want)
	}
	// Monotone-ish decrease over decades.
	if counts[0] < counts[10] || counts[10] < counts[500] {
		t.Fatalf("not decreasing: %d %d %d", counts[0], counts[10], counts[500])
	}
}

func TestZipfHighSkew(t *testing.T) {
	rng := NewRand(2)
	z := NewZipf(rng, 2.0, 10_000)
	counts := sample(z, 100_000)
	// s=2: P(0) = 1/zeta-ish over bounded n: top item dominates.
	if float64(counts[0])/100_000 < 0.5 {
		t.Fatalf("s=2 top share too low: %d", counts[0])
	}
}

func TestZipfDegenerate(t *testing.T) {
	z := NewZipf(NewRand(3), 0.99, 1)
	for i := 0; i < 10; i++ {
		if z.Next() != 0 {
			t.Fatal("n=1 must always return 0")
		}
	}
	if z.N() != 1 {
		t.Fatal("N")
	}
	// Non-positive s is clamped, not a crash.
	z2 := NewZipf(NewRand(4), -1, 100)
	if v := z2.Next(); v >= 100 {
		t.Fatal("clamped s out of range")
	}
}

func TestZipfNearOne(t *testing.T) {
	// s exactly 1 exercises the log branch.
	rng := NewRand(5)
	z := NewZipf(rng, 1.0, 100)
	counts := sample(z, 50_000)
	if counts[0] <= counts[50] {
		t.Fatal("s=1 skew missing")
	}
}

func TestUniform(t *testing.T) {
	rng := NewRand(6)
	u := NewUniform(rng, 10)
	counts := sample(u, 100_000)
	for k := uint64(0); k < 10; k++ {
		f := float64(counts[k]) / 100_000
		if f < 0.08 || f > 0.12 {
			t.Fatalf("uniform bucket %d: %.3f", k, f)
		}
	}
	if NewUniform(rng, 0).N() != 1 {
		t.Fatal("degenerate n")
	}
}

func TestSequential(t *testing.T) {
	s := NewSequential(3)
	got := []uint64{s.Next(), s.Next(), s.Next(), s.Next()}
	want := []uint64{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep: %v", got)
		}
	}
}

func TestScrambledPreservesMassMovesIdentity(t *testing.T) {
	rng := NewRand(7)
	z := NewZipf(rng, 1.2, 1000)
	sc := NewScrambled(NewZipf(NewRand(7), 1.2, 1000))
	plain := sample(z, 100_000)
	scr := sample(sc, 100_000)
	// The scrambled hot index is not 0 anymore...
	top := uint64(0)
	for k, c := range scr {
		if c > scr[top] {
			top = k
		}
	}
	if top == 0 {
		t.Fatal("scramble left the hot index at 0")
	}
	// ...but the top mass is preserved.
	if d := float64(scr[top]) / float64(plain[0]); d < 0.9 || d > 1.1 {
		t.Fatalf("scramble changed mass: %.3f", d)
	}
	for k := range scr {
		if k >= 1000 {
			t.Fatal("scramble out of range")
		}
	}
}
