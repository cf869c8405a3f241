package tier

import (
	"math"
	"math/rand"
	"testing"
)

func TestFaultPlanDisabled(t *testing.T) {
	if p := NewFaultPlan(FaultConfig{}); p != nil {
		t.Fatalf("zero config built a plan: %+v", p)
	}
	// Every method must be the disabled case on a nil plan.
	var p *FaultPlan
	if p.FailCopy() {
		t.Error("nil plan failed a copy")
	}
	if f := p.CopyCostFactor(123); f != 1 {
		t.Errorf("nil plan copy factor = %d, want 1", f)
	}
	if s := p.AccessStallNS(CapacityTier, 123); s != 0 {
		t.Errorf("nil plan stall = %d", s)
	}
	if p.MaxRetries() != 0 || p.RetryBackoffNS(3) != 0 {
		t.Error("nil plan has retry budget")
	}
	if thr, stl := p.PollWindows(123); thr || stl {
		t.Error("nil plan reported a window")
	}
	if p.ThrottleActive(0) {
		t.Error("nil plan throttles")
	}
}

func TestFaultPlanDeterministicStream(t *testing.T) {
	cfg := FaultConfig{Seed: 99, MigrateFailPpm: 250_000}
	a, b := NewFaultPlan(cfg), NewFaultPlan(cfg)
	fails := 0
	for i := 0; i < 4096; i++ {
		fa, fb := a.FailCopy(), b.FailCopy()
		if fa != fb {
			t.Fatalf("decision %d diverged between identical plans", i)
		}
		if fa {
			fails++
		}
	}
	// 25% nominal rate: accept a wide deterministic band.
	if fails < 4096/8 || fails > 4096/2 {
		t.Errorf("25%% plan failed %d/4096 copies", fails)
	}
	// A different seed must yield a different stream.
	c := NewFaultPlan(FaultConfig{Seed: 100, MigrateFailPpm: 250_000})
	a2 := NewFaultPlan(cfg)
	same := 0
	for i := 0; i < 4096; i++ {
		if a2.FailCopy() == c.FailCopy() {
			same++
		}
	}
	if same == 4096 {
		t.Error("seeds 99 and 100 produced identical streams")
	}
}

func TestFaultPlanWindows(t *testing.T) {
	p := NewFaultPlan(FaultConfig{
		ThrottlePeriodNS: 1000, ThrottleDutyNS: 200, ThrottleFactor: 8,
		StallPeriodNS: 500, StallDutyNS: 100, StallTier: CapacityTier, StallNS: 77,
	})
	if f := p.CopyCostFactor(100); f != 8 {
		t.Errorf("factor inside window = %d, want 8", f)
	}
	if f := p.CopyCostFactor(300); f != 1 {
		t.Errorf("factor outside window = %d, want 1", f)
	}
	if s := p.AccessStallNS(CapacityTier, 1050); s != 77 {
		t.Errorf("stall inside burst = %d, want 77", s)
	}
	if s := p.AccessStallNS(FastTier, 1050); s != 0 {
		t.Errorf("stall hit the wrong tier: %d", s)
	}
	if s := p.AccessStallNS(CapacityTier, 1300); s != 0 {
		t.Errorf("stall outside burst = %d", s)
	}
	// One start report per window, idempotent within it.
	thr, stl := p.PollWindows(0)
	if !thr || !stl {
		t.Fatalf("first poll at 0: throttle=%v stall=%v, want both", thr, stl)
	}
	if thr, stl = p.PollWindows(50); thr || stl {
		t.Fatal("re-poll inside the same windows reported starts again")
	}
	if thr, stl = p.PollWindows(550); thr || !stl {
		t.Fatalf("poll at 550: throttle=%v stall=%v, want stall only", thr, stl)
	}
	if thr, _ = p.PollWindows(1100); !thr {
		t.Fatal("second throttle window not reported")
	}
}

// TestFaultPlanQuietUntil walks a machine's access start times through
// fault plans with overlapping, duty-free and missing windows, polling
// the plan at each start as Machine.Access does. An access that starts
// before QuietUntil pays no stall on any tier and reports no window;
// at the boundary itself one of the two happens, so the batch loop
// leaves its fast path no earlier than it must.
func TestFaultPlanQuietUntil(t *testing.T) {
	if q := (*FaultPlan)(nil).QuietUntil(123); q != math.MaxUint64 {
		t.Fatalf("nil plan quiet until %d", q)
	}
	for _, cfg := range []FaultConfig{
		{ThrottlePeriodNS: 1000, ThrottleDutyNS: 200, StallPeriodNS: 700, StallDutyNS: 90, StallTier: CapacityTier, StallNS: 77},
		{ThrottlePeriodNS: 1000, ThrottleDutyNS: 1000},
		{StallPeriodNS: 500, StallDutyNS: 100, StallNS: 5},
		{ThrottlePeriodNS: 1000, StallPeriodNS: 300, StallNS: 9}, // zero duties: no window ever
		{MigrateFailPpm: 10},
	} {
		p := NewFaultPlan(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.ThrottlePeriodNS + cfg.StallPeriodNS)))
		bounded := 0
		for now := uint64(0); now < 20_000; now += 1 + uint64(rng.Intn(150)) {
			q := p.QuietUntil(now)
			if q < now {
				t.Fatalf("%+v: quiet until %d before now %d", cfg, q, now)
			}
			for at := now; at < q && at < now+2000; at++ {
				probe := *p
				if thr, stl := probe.PollWindows(at); thr || stl {
					t.Fatalf("%+v: quiet until %d at %d, but an access at %d starts a window", cfg, q, now, at)
				}
				for id := FastTier; id < MaxTiers; id++ {
					if s := p.AccessStallNS(id, at); s != 0 {
						t.Fatalf("%+v: quiet until %d at %d, but an access at %d to %v stalls %d ns", cfg, q, now, at, id, s)
					}
				}
			}
			if q != math.MaxUint64 {
				bounded++
				probe := *p
				thr, stl := probe.PollWindows(q)
				if !thr && !stl && p.AccessStallNS(cfg.StallTier, q) == 0 {
					t.Fatalf("%+v: quiet until %d at %d, but nothing happens there", cfg, q, now)
				}
			}
			p.PollWindows(now)
		}
		if windows := cfg.ThrottleDutyNS > 0 || cfg.StallDutyNS > 0; windows != (bounded > 0) {
			t.Fatalf("%+v: %d bounded quiet spans", cfg, bounded)
		}
	}
}

func TestFaultPlanDefaults(t *testing.T) {
	p := NewFaultPlan(FaultConfig{MigrateFailPpm: 1})
	c := p.Config()
	if c.MaxRetries != DefaultMaxRetries || c.BackoffNS != DefaultBackoffNS {
		t.Errorf("defaults not filled: %+v", c)
	}
	if b := p.RetryBackoffNS(0); b != DefaultBackoffNS {
		t.Errorf("backoff(0) = %d", b)
	}
	if b := p.RetryBackoffNS(2); b != DefaultBackoffNS*4 {
		t.Errorf("backoff(2) = %d", b)
	}
	// The doubling is capped.
	if b := p.RetryBackoffNS(1000); b != DefaultBackoffNS<<maxBackoffShift {
		t.Errorf("backoff(1000) = %d", b)
	}
	pt := NewFaultPlan(FaultConfig{ThrottlePeriodNS: 100, ThrottleDutyNS: 10})
	if f := pt.Config().ThrottleFactor; f != DefaultThrottleFactor {
		t.Errorf("throttle factor default = %d", f)
	}
}

func TestParseFaultSpec(t *testing.T) {
	c, err := ParseFaultSpec("rate=0.01,retries=5,backoff=40us,throttle=200us/1ms:4x,stall=cap:100us/1ms:150ns,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultConfig{
		Seed: 7, MigrateFailPpm: 10_000, MaxRetries: 5, BackoffNS: 40_000,
		ThrottlePeriodNS: 1_000_000, ThrottleDutyNS: 200_000, ThrottleFactor: 4,
		StallPeriodNS: 1_000_000, StallDutyNS: 100_000, StallTier: CapacityTier, StallNS: 150,
	}
	if c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}
	if c2, err := ParseFaultSpec("rate=10000ppm"); err != nil || c2.MigrateFailPpm != 10_000 {
		t.Fatalf("ppm form: %+v, %v", c2, err)
	}
	if c3, err := ParseFaultSpec(""); err != nil || c3.Enabled() {
		t.Fatalf("empty spec: %+v, %v", c3, err)
	}
	for _, bad := range []string{
		"rate=2", "rate=-1", "rate=2000000ppm", "retries=99", "retries=-1",
		"bogus=1", "throttle=1ms", "throttle=2ms/1ms", "throttle=1us/1ms:4",
		"stall=cap:1us/1ms", "stall=mid:1us/1ms:5ns", "stall=cap:2ms/1ms:5ns",
		"backoff=12", "backoff=5parsecs", "rate", "throttle=1us/0ns",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// FuzzFaultSpec: the parser never panics, and any spec it accepts
// round-trips exactly through the canonical String form.
func FuzzFaultSpec(f *testing.F) {
	f.Add("rate=0.01,retries=3,throttle=200us/1ms:4x,stall=cap:100us/1ms:150ns")
	f.Add("rate=10000ppm,seed=-42,backoff=1ms")
	f.Add("stall=fast:0ns/1ns:0ns")
	f.Add("throttle=1us/1us:1024x")
	f.Add("")
	f.Add(" rate=1 , retries=16 ")
	f.Add("rate=0.999999")
	f.Add("seed=9223372036854775807")
	f.Add("rate==,==,")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parser accepted invalid config %+v: %v", c, err)
		}
		canon := c.String()
		c2, err := ParseFaultSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, spec, err)
		}
		if c2 != c {
			t.Fatalf("round trip diverged: %+v -> %q -> %+v", c, canon, c2)
		}
	})
}
