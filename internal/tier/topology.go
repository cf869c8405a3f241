package tier

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the declarative topology of the simulated memory
// hierarchy: an ordered chain of tiers (index 0 is the fastest, the
// last is the deepest capacity tier) joined by hops that carry the
// migration cost model between adjacent tiers. The topology only
// *describes* — vm.Memory charges per-hop migration costs from
// it, sim.Machine builds its tier set and latency tables from it, and
// policies ask it which tier sits above or below a page — so the whole
// hierarchy stays pure configuration: a fixed spec always builds the
// same machine, and the default two-tier topology is byte-for-byte the
// fast/capacity pair the simulator has always modelled (DESIGN.md §11).

// MaxTiers bounds topology depth. IDs are small signed integers and the
// sweep matrices enumerate depth, so the bound is deliberately tight.
const MaxTiers = 8

// Default per-hop migration copy costs in nanoseconds: the two-tier
// VM's migration charges (vm.MigrateBaseNS and vm.MigrateHugeNS are
// these), so a default hop costs exactly what a two-tier migration
// always has.
const (
	DefaultHopBaseNS = 3_000
	DefaultHopHugeNS = 250_000
)

// Validation bounds for topology fields; specs beyond these are almost
// certainly typos and would make virtual-time arithmetic meaningless.
const (
	// MaxLatencyNS bounds per-access tier latency (1ms).
	MaxLatencyNS = 1_000_000
	// MaxHopCostNS bounds one hop's per-page migration cost (1s).
	MaxHopCostNS = 1_000_000_000
	// MaxTierBytes bounds one tier's capacity (1 PiB).
	MaxTierBytes = 1 << 50
)

// HopConfig describes the migration link between two adjacent tiers
// (hop i joins tier i and tier i+1). Zero fields take the defaults
// above, so the zero HopConfig is the historical two-tier cost model.
type HopConfig struct {
	// BaseCostNS is the copy cost of migrating one 4KB page across the
	// hop (0 = DefaultHopBaseNS).
	BaseCostNS uint64
	// HugeCostNS is the copy cost of migrating one 2MB page across the
	// hop (0 = DefaultHopHugeNS).
	HugeCostNS uint64
}

func (h *HopConfig) fillDefaults() {
	if h.BaseCostNS == 0 {
		h.BaseCostNS = DefaultHopBaseNS
	}
	if h.HugeCostNS == 0 {
		h.HugeCostNS = DefaultHopHugeNS
	}
}

// Topology is an ordered chain of memory tiers and the hops between
// them. Tiers[0] is the fast tier; Tiers[len-1] is the deepest capacity
// tier. Hops[i] joins Tiers[i] and Tiers[i+1] and must have exactly
// len(Tiers)-1 entries (or be nil for all-default hops).
type Topology struct {
	Tiers []Config
	Hops  []HopConfig
}

// Depth returns the number of tiers in the chain.
func (t *Topology) Depth() int { return len(t.Tiers) }

// Validate rejects topologies the simulator cannot build: wrong depth,
// hop-count mismatch, sub-huge-page tiers, or fields beyond the
// documented bounds. Zero latency/cost fields are legal
// ("use the default") and not checked here.
func (t *Topology) Validate() error {
	if len(t.Tiers) < 2 || len(t.Tiers) > MaxTiers {
		return fmt.Errorf("tier: topology depth %d outside [2,%d]", len(t.Tiers), MaxTiers)
	}
	if t.Hops != nil && len(t.Hops) != len(t.Tiers)-1 {
		return fmt.Errorf("tier: topology has %d tiers but %d hops (want %d)",
			len(t.Tiers), len(t.Hops), len(t.Tiers)-1)
	}
	for i, tc := range t.Tiers {
		if tc.Kind < DRAM || tc.Kind > Far {
			return fmt.Errorf("tier: tier %d has unknown kind %d", i, int(tc.Kind))
		}
		if tc.Bytes < HugePageSize {
			return fmt.Errorf("tier: tier %d capacity %d below one huge page", i, tc.Bytes)
		}
		if tc.Bytes > MaxTierBytes {
			return fmt.Errorf("tier: tier %d capacity %d exceeds %d", i, tc.Bytes, uint64(MaxTierBytes))
		}
		if tc.LoadNS > MaxLatencyNS || tc.StoreNS > MaxLatencyNS {
			return fmt.Errorf("tier: tier %d latency %d/%d exceeds %dns",
				i, tc.LoadNS, tc.StoreNS, uint64(MaxLatencyNS))
		}
		if (tc.LoadNS == 0) != (tc.StoreNS == 0) {
			return fmt.Errorf("tier: tier %d sets only one of load/store latency", i)
		}
	}
	for i, h := range t.Hops {
		if h.BaseCostNS > MaxHopCostNS || h.HugeCostNS > MaxHopCostNS {
			return fmt.Errorf("tier: hop %d cost %d/%d exceeds %dns",
				i, h.BaseCostNS, h.HugeCostNS, uint64(MaxHopCostNS))
		}
	}
	return nil
}

// DefaultTopology is the historical two-tier machine: a DRAM fast tier
// over one capacity tier of the given kind, joined by a default hop.
func DefaultTopology(fastBytes, capBytes uint64, capKind Kind) *Topology {
	return &Topology{
		Tiers: []Config{
			{Name: "DRAM", Kind: DRAM, Bytes: fastBytes},
			{Name: capKind.String(), Kind: capKind, Bytes: capBytes},
		},
	}
}

// Build validates the topology and constructs its tiers in chain order.
func (t *Topology) Build() ([]*Tier, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	tiers := make([]*Tier, len(t.Tiers))
	for i, tc := range t.Tiers {
		tr, err := New(tc)
		if err != nil {
			return nil, err
		}
		tiers[i] = tr
	}
	return tiers, nil
}

// hops returns the default-filled hop table (length Depth()-1),
// materialising nil Hops as all-default.
func (t *Topology) hops() []HopConfig {
	out := make([]HopConfig, len(t.Tiers)-1)
	copy(out, t.Hops)
	for i := range out {
		out[i].fillDefaults()
	}
	return out
}

// HopCosts returns the per-hop migration copy costs of the chain as two
// tables of length Depth()-1: base-page and huge-page cost per hop,
// default-filled. Migrating between non-adjacent tiers crosses every
// hop in between and pays the sum.
func (t *Topology) HopCosts() (baseNS, hugeNS []uint64) {
	hs := t.hops()
	baseNS = make([]uint64, len(hs))
	hugeNS = make([]uint64, len(hs))
	for i, h := range hs {
		baseNS[i] = h.BaseCostNS
		hugeNS[i] = h.HugeCostNS
	}
	return baseNS, hugeNS
}

// kindNames maps spec tokens to kinds; keep in sync with Kind.
var kindNames = map[string]Kind{
	"dram": DRAM,
	"nvm":  NVM,
	"cxl":  CXL,
	"far":  Far,
}

func kindToken(k Kind) string {
	switch k {
	case DRAM:
		return "dram"
	case NVM:
		return "nvm"
	case CXL:
		return "cxl"
	case Far:
		return "far"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// ParseTopologySpec decodes the CLI topology specification: tier
// clauses joined by ">" (fast tier first), each
//
//	KIND:BYTES[:LOAD/STORE]
//
// where KIND is dram, cxl, nvm or far, BYTES takes k/m/g/t binary
// suffixes, and LOAD/STORE are per-access latencies with ns/us/ms/s
// suffixes (omitted: the kind's default profile). A hop attribute block
// may follow any ">" separator:
//
//	>[base=DUR,huge=DUR]
//
// setting the hop's per-page copy costs; omitted attributes keep the
// defaults, which reproduce the two-tier migration charges. Example:
//
//	dram:256m>[huge=400us]cxl:1g>nvm:4g:300ns/400ns
//
// The empty string is an error; use a nil *Topology for "default".
func ParseTopologySpec(s string) (*Topology, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("tier: empty topology spec")
	}
	var t Topology
	parts := strings.Split(s, ">")
	t.Hops = make([]HopConfig, 0, len(parts)-1)
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if i > 0 {
			var h HopConfig
			if strings.HasPrefix(part, "[") {
				end := strings.Index(part, "]")
				if end < 0 {
					return nil, fmt.Errorf("tier: topology hop block %q is not terminated", part)
				}
				if err := parseHopAttrs(part[1:end], &h); err != nil {
					return nil, err
				}
				part = strings.TrimSpace(part[end+1:])
			}
			t.Hops = append(t.Hops, h)
		}
		tc, err := parseTierClause(part)
		if err != nil {
			return nil, err
		}
		t.Tiers = append(t.Tiers, tc)
	}
	if allZeroHops(t.Hops) {
		t.Hops = nil
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

func allZeroHops(hs []HopConfig) bool {
	for _, h := range hs {
		if h != (HopConfig{}) {
			return false
		}
	}
	return true
}

func parseTierClause(s string) (Config, error) {
	var c Config
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return c, fmt.Errorf("tier: topology clause %q is not KIND:BYTES[:LOAD/STORE]", s)
	}
	k, ok := kindNames[parts[0]]
	if !ok {
		return c, fmt.Errorf("tier: unknown tier kind %q (want dram, cxl, nvm or far)", parts[0])
	}
	c.Kind = k
	b, err := parseBytes(parts[1])
	if err != nil {
		return c, fmt.Errorf("tier: topology clause %q: %w", s, err)
	}
	c.Bytes = b
	if len(parts) == 3 {
		l, st, ok := strings.Cut(parts[2], "/")
		if !ok {
			return c, fmt.Errorf("tier: topology latency %q is not LOAD/STORE", parts[2])
		}
		if c.LoadNS, err = parseDuration(l); err != nil {
			return c, fmt.Errorf("tier: topology clause %q: %w", s, err)
		}
		if c.StoreNS, err = parseDuration(st); err != nil {
			return c, fmt.Errorf("tier: topology clause %q: %w", s, err)
		}
		if c.LoadNS == 0 || c.StoreNS == 0 {
			return c, fmt.Errorf("tier: topology clause %q: explicit latency must be positive", s)
		}
	}
	return c, nil
}

func parseHopAttrs(s string, h *HopConfig) error {
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("tier: topology hop attribute %q is not key=value", clause)
		}
		var err error
		switch key {
		case "base":
			h.BaseCostNS, err = parseDuration(val)
		case "huge":
			h.HugeCostNS, err = parseDuration(val)
		default:
			return fmt.Errorf("tier: unknown topology hop attribute %q", key)
		}
		if err != nil {
			return fmt.Errorf("tier: topology hop attribute %q: %w", clause, err)
		}
		if err == nil {
			switch key {
			case "base":
				if h.BaseCostNS == 0 {
					return fmt.Errorf("tier: topology hop base cost must be positive")
				}
			case "huge":
				if h.HugeCostNS == 0 {
					return fmt.Errorf("tier: topology hop huge cost must be positive")
				}
			}
		}
	}
	return nil
}

// byteUnits is ordered so fmtBytes picks the largest exact unit.
var byteUnits = []struct {
	suffix string
	bytes  uint64
}{
	{"t", 1 << 40}, {"g", 1 << 30}, {"m", 1 << 20}, {"k", 1 << 10},
}

func parseBytes(val string) (uint64, error) {
	mult := uint64(1)
	body := val
	for _, u := range byteUnits {
		if b, ok := strings.CutSuffix(val, u.suffix); ok {
			mult, body = u.bytes, b
			break
		}
	}
	n, err := strconv.ParseUint(body, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("byte size %q: %w", val, err)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", val)
	}
	return n * mult, nil
}

// fmtBytes renders n in the largest exact binary unit, inverting
// parseBytes (String/ParseTopologySpec round-trip exactly).
func fmtBytes(n uint64) string {
	for _, u := range byteUnits {
		if n > 0 && n%u.bytes == 0 {
			return strconv.FormatUint(n/u.bytes, 10) + u.suffix
		}
	}
	return strconv.FormatUint(n, 10)
}

// String renders the canonical spec form: ParseTopologySpec(t.String())
// reproduces t for any valid topology. Defaulted (zero) fields are
// omitted, so the canonical form is minimal.
func (t *Topology) String() string {
	var b strings.Builder
	for i, tc := range t.Tiers {
		if i > 0 {
			b.WriteByte('>')
			if t.Hops != nil {
				if h := t.Hops[i-1]; h != (HopConfig{}) {
					var attrs []string
					if h.BaseCostNS > 0 {
						attrs = append(attrs, "base="+fmtDuration(h.BaseCostNS))
					}
					if h.HugeCostNS > 0 {
						attrs = append(attrs, "huge="+fmtDuration(h.HugeCostNS))
					}
					b.WriteByte('[')
					b.WriteString(strings.Join(attrs, ","))
					b.WriteByte(']')
				}
			}
		}
		b.WriteString(kindToken(tc.Kind))
		b.WriteByte(':')
		b.WriteString(fmtBytes(tc.Bytes))
		if tc.LoadNS > 0 || tc.StoreNS > 0 {
			b.WriteByte(':')
			b.WriteString(fmtDuration(tc.LoadNS))
			b.WriteByte('/')
			b.WriteString(fmtDuration(tc.StoreNS))
		}
	}
	return b.String()
}
