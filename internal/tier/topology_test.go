package tier

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestTopologyValidate(t *testing.T) {
	good := &Topology{Tiers: []Config{
		{Kind: DRAM, Bytes: 64 << 20},
		{Kind: CXL, Bytes: 256 << 20},
		{Kind: NVM, Bytes: 1 << 30},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	bad := []struct {
		name string
		topo Topology
	}{
		{"one tier", Topology{Tiers: []Config{{Kind: DRAM, Bytes: 1 << 30}}}},
		{"too deep", Topology{Tiers: make([]Config, MaxTiers+1)}},
		{"hop mismatch", Topology{
			Tiers: []Config{{Kind: DRAM, Bytes: 1 << 30}, {Kind: NVM, Bytes: 1 << 30}},
			Hops:  []HopConfig{{}, {}},
		}},
		{"bad kind", Topology{Tiers: []Config{
			{Kind: DRAM, Bytes: 1 << 30}, {Kind: Far + 1, Bytes: 1 << 30}}}},
		{"tiny tier", Topology{Tiers: []Config{
			{Kind: DRAM, Bytes: 1 << 30}, {Kind: NVM, Bytes: HugePageSize - 1}}}},
		{"huge tier", Topology{Tiers: []Config{
			{Kind: DRAM, Bytes: 1 << 30}, {Kind: NVM, Bytes: MaxTierBytes + 1}}}},
		{"half latency", Topology{Tiers: []Config{
			{Kind: DRAM, Bytes: 1 << 30, LoadNS: 100}, {Kind: NVM, Bytes: 1 << 30}}}},
		{"latency bound", Topology{Tiers: []Config{
			{Kind: DRAM, Bytes: 1 << 30, LoadNS: MaxLatencyNS + 1, StoreNS: 10},
			{Kind: NVM, Bytes: 1 << 30}}}},
		{"hop cost bound", Topology{
			Tiers: []Config{{Kind: DRAM, Bytes: 1 << 30}, {Kind: NVM, Bytes: 1 << 30}},
			Hops:  []HopConfig{{BaseCostNS: MaxHopCostNS + 1}},
		}},
	}
	for _, tc := range bad {
		if err := tc.topo.Validate(); err == nil {
			t.Errorf("%s: invalid topology accepted", tc.name)
		}
	}
}

// TestDefaultTopologyMatchesLegacy pins the contract every golden trace
// rests on: the default topology is byte-for-byte the fast/capacity
// pair the two-tier simulator always built, and its (nil) hop table
// prices a migration exactly at the historical flat charges.
func TestDefaultTopologyMatchesLegacy(t *testing.T) {
	topo := DefaultTopology(128<<20, 512<<20, NVM)
	want := []Config{
		{Name: "DRAM", Kind: DRAM, Bytes: 128 << 20},
		{Name: "NVM", Kind: NVM, Bytes: 512 << 20},
	}
	if !reflect.DeepEqual(topo.Tiers, want) {
		t.Fatalf("default topology %+v, want %+v", topo.Tiers, want)
	}
	if topo.Hops != nil {
		t.Fatalf("default topology has explicit hops %+v", topo.Hops)
	}
	base, huge := topo.HopCosts()
	if len(base) != 1 || base[0] != DefaultHopBaseNS || huge[0] != DefaultHopHugeNS {
		t.Fatalf("default hop costs %v/%v, want [%d]/[%d]",
			base, huge, DefaultHopBaseNS, DefaultHopHugeNS)
	}
	tiers, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 2 || tiers[0].CapacityBytes() != 128<<20 || tiers[1].CapacityBytes() != 512<<20 {
		t.Fatalf("built tiers do not match the legacy pair")
	}
}

func TestParseTopologySpec(t *testing.T) {
	topo, err := ParseTopologySpec("dram:256m>[huge=400us]cxl:1g>nvm:4g:300ns/400ns")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Depth() != 3 {
		t.Fatalf("depth %d, want 3", topo.Depth())
	}
	if topo.Tiers[1].Kind != CXL || topo.Tiers[1].Bytes != 1<<30 {
		t.Fatalf("middle tier %+v", topo.Tiers[1])
	}
	if topo.Tiers[2].LoadNS != 300 || topo.Tiers[2].StoreNS != 400 {
		t.Fatalf("deep tier latency %d/%d, want 300/400", topo.Tiers[2].LoadNS, topo.Tiers[2].StoreNS)
	}
	if len(topo.Hops) != 2 || topo.Hops[0] != (HopConfig{HugeCostNS: 400_000}) || topo.Hops[1] != (HopConfig{}) {
		t.Fatalf("hops %+v", topo.Hops)
	}

	// All-default hop blocks canonicalise to a nil hop table.
	topo, err = ParseTopologySpec("dram:64m>nvm:256m")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Hops != nil {
		t.Fatalf("default hops materialised: %+v", topo.Hops)
	}

	for _, bad := range []string{
		"", "dram:256m", "dram:256m>flash:1g", "dram:0>nvm:1g",
		"dram:256m>nvm:1g:300ns", "dram:256m>nvm:1g:0ns/0ns",
		"dram:256m>[base=0]nvm:1g", "dram:256m>[speed=9]nvm:1g",
		"dram:256m>[bw=16g]nvm:1g", "dram:256m>[base=1usnvm:1g", "dram:256m>nvm:1k",
		"dram:256m>nvm:1g>nvm:1g>nvm:1g>nvm:1g>nvm:1g>nvm:1g>nvm:1g>nvm:1g",
	} {
		if _, err := ParseTopologySpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// randomTopology builds a random valid topology in canonical form (the
// form ParseTopologySpec produces: no tier names, all-zero hop tables
// folded to nil).
func randomTopology(rng *rand.Rand) *Topology {
	depth := 2 + rng.Intn(MaxTiers-1)
	topo := &Topology{Tiers: make([]Config, depth)}
	kinds := []Kind{DRAM, NVM, CXL, Far}
	for i := range topo.Tiers {
		c := &topo.Tiers[i]
		c.Kind = kinds[rng.Intn(len(kinds))]
		c.Bytes = HugePageSize * (1 + uint64(rng.Intn(1<<12)))
		if rng.Intn(2) == 0 {
			c.LoadNS = 1 + uint64(rng.Intn(MaxLatencyNS))
			c.StoreNS = 1 + uint64(rng.Intn(MaxLatencyNS))
		}
	}
	if rng.Intn(2) == 0 {
		topo.Hops = make([]HopConfig, depth-1)
		for i := range topo.Hops {
			h := &topo.Hops[i]
			if rng.Intn(2) == 0 {
				h.BaseCostNS = 1 + uint64(rng.Intn(MaxHopCostNS))
			}
			if rng.Intn(2) == 0 {
				h.HugeCostNS = 1 + uint64(rng.Intn(MaxHopCostNS))
			}
		}
		if allZeroHops(topo.Hops) {
			topo.Hops = nil
		}
	}
	return topo
}

// TestTopologyStringRoundTrip is the property test behind the spec
// grammar: for any valid topology, ParseTopologySpec(t.String())
// reproduces t exactly (canonical form), and String is stable across
// the round trip.
func TestTopologyStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		topo := randomTopology(rng)
		if err := topo.Validate(); err != nil {
			t.Fatalf("generator produced invalid topology %+v: %v", topo, err)
		}
		spec := topo.String()
		back, err := ParseTopologySpec(spec)
		if err != nil {
			t.Fatalf("canonical form %q of %+v does not parse: %v", spec, topo, err)
		}
		if !reflect.DeepEqual(back, topo) {
			t.Fatalf("round trip diverged:\n  %+v\n  -> %q\n  -> %+v", topo, spec, back)
		}
		if again := back.String(); again != spec {
			t.Fatalf("String not stable: %q -> %q", spec, again)
		}
	}
}

// FuzzTopologySpec: the parser never panics, anything it accepts
// validates, and the canonical String form round-trips exactly.
func FuzzTopologySpec(f *testing.F) {
	f.Add("dram:256m>nvm:1g")
	f.Add("dram:256m>[huge=400us]cxl:1g>nvm:4g:300ns/400ns")
	f.Add("dram:64m:80ns/90ns>[base=3us,huge=250us]far:1t")
	f.Add("dram:2m>cxl:2m>nvm:2m>far:2m")
	f.Add(">>>")
	f.Add("dram:256m>[]nvm:1g")
	f.Add("dram:9007199254740993>nvm:1g")
	f.Add(" dram:256m > nvm:1g ")
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseTopologySpec(spec)
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("parser accepted invalid topology %+v: %v", topo, err)
		}
		canon := topo.String()
		back, err := ParseTopologySpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(back, topo) {
			t.Fatalf("round trip diverged: %+v -> %q -> %+v", topo, canon, back)
		}
		if strings.TrimSpace(canon) != canon {
			t.Fatalf("canonical form %q has surrounding space", canon)
		}
	})
}
