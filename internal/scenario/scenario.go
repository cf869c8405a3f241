// Package scenario turns workloads into data: a declarative
// specification (JSON with a strict decoder) composes phases — named
// Table 2 generators, synthetic access mixes over named regions,
// recorded trace replays — with RSS growth/shrink churn events and a
// fault-injection plan, and compiles into a sim.Workload runner that
// every harness (memtis-sim, bench.RunScenarioMatrix, paperfigs) can
// drive from a file instead of a code change.
//
// The package also carries the scenario fuzzer: Generate derives a
// random but seed-deterministic scenario (SplitMix64 counter discipline,
// like bench's cell seeds and tier's fault plans), Probe wraps any
// policy with the conformance invariants (bounded stalls, monotonic
// background accounting, no page lost or double-mapped, ksampled
// budget) tagging every violation with the scenario seed, and Shrink
// reduces a failing spec to a minimal reproducer. bench.HuntScenario
// ties them into the standing CI pathology hunt (DESIGN.md §9).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"memtis/internal/tier"
	"memtis/internal/workload"
)

// Validation bounds: generous for hand-written scenarios, tight enough
// that a fuzzer-mutated spec cannot ask the simulator for an absurd
// machine.
const (
	// MaxPhases bounds the phase list.
	MaxPhases = 64
	// MaxMixEntries bounds one phase's access mix.
	MaxMixEntries = 16
	// MaxRegionBytes bounds one named region.
	MaxRegionBytes = 1 << 30
	// MaxTotalBytes bounds the scenario's peak resident estimate.
	MaxTotalBytes = 4 << 30
	// MaxWeight bounds a phase's budget weight.
	MaxWeight = 1e6
	// MaxRSSGB bounds a workload phase's paper-RSS override (Figure 6
	// scales Graph500 to 690 paper-GB; 1024 leaves headroom).
	MaxRSSGB = 1024
	// MaxSpecTenants bounds a multi-tenant spec's tenant list (large
	// sweeps build tenant.Config programmatically; declarative specs
	// stay file-sized).
	MaxSpecTenants = 64
)

// Spec is one declarative scenario. The zero value is invalid; a spec
// round-trips exactly through Encode/Decode (pinned by
// FuzzScenarioSpec).
type Spec struct {
	// Name labels the scenario in results and output file names.
	Name string `json:"name"`
	// Note is free-form documentation; fuzz reproducers carry their
	// originating seed, policy and violation here.
	Note string `json:"note,omitempty"`
	// Faults is a fault-injection plan in tier.ParseFaultSpec's
	// mini-language (e.g. "rate=0.01,throttle=200us/1ms:4x"); empty
	// disables injection. A non-empty plan overrides the harness
	// config's fault schedule for this scenario.
	Faults string `json:"faults,omitempty"`
	// Phases run in order, splitting the run's access budget by Weight.
	// Mutually exclusive with Tenants.
	Phases []Phase `json:"phases,omitempty"`
	// Tenants, when present, makes the scenario multi-tenant: each
	// entry is an independent process with its own phase list and
	// address space, interleaved by internal/tenant's deterministic
	// scheduler against one shared tier set. Mutually exclusive with
	// top-level Phases.
	Tenants []TenantSpec `json:"tenants,omitempty"`
}

// TenantSpec is one tenant of a multi-tenant scenario: its own phase
// program plus the QoS and lifecycle knobs of tenant.Spec. Fractions
// are of the run's global access budget.
type TenantSpec struct {
	// Name labels the tenant's counters and result row (default
	// "t<index>").
	Name string `json:"name,omitempty"`
	// Weight is the fairness share weight (default 1).
	Weight uint64 `json:"weight,omitempty"`
	// FloorBytes is the guaranteed fast-tier floor.
	FloorBytes uint64 `json:"floor_bytes,omitempty"`
	// Phases is this tenant's program, with the same grammar as a
	// single-tenant scenario's phase list.
	Phases []Phase `json:"phases"`

	// SpawnFrac/ExitFrac delay the tenant's start / kill it early;
	// GrowBytes at GrowFrac (freed at ShrinkFrac) models RSS churn —
	// see tenant.Spec.
	SpawnFrac  float64 `json:"spawn_frac,omitempty"`
	ExitFrac   float64 `json:"exit_frac,omitempty"`
	GrowBytes  uint64  `json:"grow_bytes,omitempty"`
	GrowFrac   float64 `json:"grow_frac,omitempty"`
	ShrinkFrac float64 `json:"shrink_frac,omitempty"`
}

// Phase is one step of a scenario: optional churn (Free then Grow,
// applied before any access), then at most one access source — a named
// Table 2 workload, a recorded trace, or a mix over named regions —
// driven for this phase's share of the access budget.
type Phase struct {
	// Name is optional documentation.
	Name string `json:"phase,omitempty"`
	// Weight is this phase's share of the run's access budget relative
	// to the other phases. Omitted (zero) means 1 for a phase with an
	// access source; churn-only phases must leave it zero.
	Weight float64 `json:"weight,omitempty"`

	// Free unmaps named regions grown by earlier phases (RSS shrink).
	// Frees apply before Grow, so a name may be re-grown in the same
	// phase as a fresh reservation.
	Free []string `json:"free,omitempty"`
	// Grow reserves new named regions (RSS growth). Unless SkipInit is
	// set, each page is first-touched sequentially, charged against the
	// run's access budget like any workload init sweep.
	Grow []Region `json:"grow,omitempty"`

	// Workload names a Table 2 generator (see workload.Specs).
	Workload string `json:"workload,omitempty"`
	// RSSGB overrides the workload's paper-scale RSS (workload.NewScaled);
	// only valid with Workload.
	RSSGB float64 `json:"rss_gb,omitempty"`
	// Trace replays a recorded memtis-trace stream from this file path
	// (relative paths resolve against Options.Dir at compile time).
	Trace string `json:"trace,omitempty"`
	// Mix draws accesses from a weighted mix over live named regions.
	Mix []MixEntry `json:"mix,omitempty"`
}

// Region is one named reservation created by a Grow event.
type Region struct {
	Name  string `json:"name"`
	Bytes uint64 `json:"bytes"`
	// SkipInit leaves the region untouched (pages fault in on first
	// steady-state access), modelling lazily-built heaps.
	SkipInit bool `json:"skip_init,omitempty"`
}

// MixEntry is one arm of a phase's access mix, in the mould of
// workload.SyntheticPhase: each access picks an arm with probability
// proportional to Weight, then draws a page index from Dist over the
// named region.
type MixEntry struct {
	Region string `json:"region"`
	// Weight defaults to 1 when omitted.
	Weight int `json:"weight,omitempty"`
	// Dist is "zipf", "uniform" or "seq".
	Dist string `json:"dist"`
	// S is the Zipf exponent (required > 0 for zipf).
	S float64 `json:"s,omitempty"`
	// Scramble scatters hot indexes across the region.
	Scramble bool `json:"scramble,omitempty"`
	// WritePercent of this arm's accesses are stores.
	WritePercent int `json:"write_percent,omitempty"`
}

// source counts the phase's access sources (a valid phase has 0 or 1).
func (p *Phase) sources() int {
	n := 0
	if p.Workload != "" {
		n++
	}
	if p.Trace != "" {
		n++
	}
	if len(p.Mix) > 0 {
		n++
	}
	return n
}

// isSource reports whether the phase consumes access budget.
func (p *Phase) isSource() bool { return p.sources() > 0 }

// effWeight is the phase's effective budget weight: omitted weight on a
// source phase defaults to 1; churn-only phases weigh nothing.
func (p *Phase) effWeight() float64 {
	if !p.isSource() {
		return 0
	}
	if p.Weight == 0 {
		return 1
	}
	return p.Weight
}

// Decode parses a spec from JSON. Decoding is strict: unknown fields
// and trailing data are errors, so a typo'd key fails loudly instead of
// silently configuring nothing.
func Decode(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec")
	}
	return s, nil
}

// DecodeFile reads and parses a spec file.
func DecodeFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Encode renders the canonical form: indented JSON with omitted zero
// fields and a trailing newline. For any valid spec,
// Decode(Encode(spec)) yields a spec that re-encodes byte-identically
// (the FuzzScenarioSpec property).
func (s Spec) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// Validate checks the spec against the grammar of DESIGN.md §9. It is
// pure — trace files are only checked for a non-empty path here and
// loaded (and size-checked) by Compile.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if len(s.Name) > 128 {
		return fmt.Errorf("scenario: name longer than 128 bytes")
	}
	if len(s.Note) > 4096 {
		return fmt.Errorf("scenario: note longer than 4096 bytes")
	}
	if s.Faults != "" {
		if _, err := tier.ParseFaultSpec(s.Faults); err != nil {
			return fmt.Errorf("scenario: faults: %w", err)
		}
	}
	if len(s.Tenants) > 0 {
		return s.validateTenants()
	}
	peak, err := validatePhases(s.Phases)
	if err != nil {
		return err
	}
	if peak > MaxTotalBytes {
		return fmt.Errorf("scenario: peak resident estimate %d exceeds %d", peak, MaxTotalBytes)
	}
	return nil
}

// validatePhases checks one phase sequence and returns its peak
// resident estimate (tracked the same way Compile does).
func validatePhases(phases []Phase) (uint64, error) {
	if len(phases) == 0 {
		return 0, fmt.Errorf("scenario: spec needs at least one phase")
	}
	if len(phases) > MaxPhases {
		return 0, fmt.Errorf("scenario: %d phases exceeds %d", len(phases), MaxPhases)
	}
	live := map[string]uint64{} // named region -> bytes
	var running, peak uint64
	sources := 0
	for i := range phases {
		p := &phases[i]
		if err := p.validate(i, live); err != nil {
			return 0, err
		}
		if p.isSource() {
			sources++
		}
		for _, name := range p.Free {
			running -= live[name]
			delete(live, name)
		}
		for _, g := range p.Grow {
			live[g.Name] = g.Bytes
			running += g.Bytes
		}
		if p.Workload != "" {
			spec, err := workload.SpecByName(p.Workload)
			if err != nil {
				return 0, fmt.Errorf("scenario: phase %d: %w", i, err)
			}
			if p.RSSGB > 0 {
				spec.PaperRSSGB = p.RSSGB
			}
			running += spec.RSSBytes()
		}
		if running > peak {
			peak = running
		}
	}
	if sources == 0 {
		return 0, fmt.Errorf("scenario: no phase has an access source")
	}
	return peak, nil
}

// validateTenants checks the multi-tenant form. The rules mirror
// tenant.Config.Validate (which Compile re-runs), plus the scenario
// grammar per tenant phase list — so a validated spec always compiles.
func (s Spec) validateTenants() error {
	if len(s.Phases) > 0 {
		return fmt.Errorf("scenario: top-level phases and tenants are mutually exclusive")
	}
	if len(s.Tenants) > MaxSpecTenants {
		return fmt.Errorf("scenario: %d tenants exceeds %d", len(s.Tenants), MaxSpecTenants)
	}
	immortal := false
	seen := map[string]bool{}
	var peak uint64
	for i := range s.Tenants {
		t := &s.Tenants[i]
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		if len(s.Name)+1+len(name) > 128 {
			return fmt.Errorf("scenario: tenant %d: name %q overflows the 128-byte scenario name budget", i, name)
		}
		if seen[name] {
			return fmt.Errorf("scenario: tenant %d: duplicate name %q", i, name)
		}
		seen[name] = true
		if float64(t.Weight) > MaxWeight {
			return fmt.Errorf("scenario: tenant %d: weight %d exceeds %v", i, t.Weight, float64(MaxWeight))
		}
		if t.FloorBytes > MaxRegionBytes {
			return fmt.Errorf("scenario: tenant %d: floor %d exceeds %d", i, t.FloorBytes, uint64(MaxRegionBytes))
		}
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"spawn_frac", t.SpawnFrac}, {"exit_frac", t.ExitFrac}, {"grow_frac", t.GrowFrac}, {"shrink_frac", t.ShrinkFrac}} {
			if !isFinite(f.v) || f.v < 0 || f.v > 1 {
				return fmt.Errorf("scenario: tenant %d: %s %v outside [0,1]", i, f.name, f.v)
			}
		}
		if t.ExitFrac > 0 && t.SpawnFrac >= t.ExitFrac {
			return fmt.Errorf("scenario: tenant %d: spawns at %v, at or after its exit %v", i, t.SpawnFrac, t.ExitFrac)
		}
		if t.GrowBytes > MaxRegionBytes {
			return fmt.Errorf("scenario: tenant %d: grow bytes %d exceeds %d", i, t.GrowBytes, uint64(MaxRegionBytes))
		}
		if t.GrowBytes == 0 && (t.GrowFrac != 0 || t.ShrinkFrac != 0) {
			return fmt.Errorf("scenario: tenant %d: grow/shrink fractions without grow bytes", i)
		}
		if t.GrowBytes > 0 && t.ShrinkFrac > 0 && t.ShrinkFrac <= t.GrowFrac {
			return fmt.Errorf("scenario: tenant %d: shrinks at %v, at or before its grow %v", i, t.ShrinkFrac, t.GrowFrac)
		}
		if t.ExitFrac == 0 {
			immortal = true
		}
		tpeak, err := validatePhases(t.Phases)
		if err != nil {
			return fmt.Errorf("scenario: tenant %d (%s): %s", i, name,
				strings.TrimPrefix(err.Error(), "scenario: "))
		}
		peak += tpeak + t.GrowBytes
	}
	if !immortal {
		return fmt.Errorf("scenario: every tenant exits; at least one must run to the end")
	}
	if peak > MaxTotalBytes {
		return fmt.Errorf("scenario: peak resident estimate %d exceeds %d", peak, MaxTotalBytes)
	}
	return nil
}

// validate checks one phase against the regions live when it starts,
// and leaves live untouched (the caller applies churn after).
func (p *Phase) validate(i int, live map[string]uint64) error {
	if len(p.Name) > 128 {
		return fmt.Errorf("scenario: phase %d: name longer than 128 bytes", i)
	}
	if !isFinite(p.Weight) || p.Weight < 0 || p.Weight > MaxWeight {
		return fmt.Errorf("scenario: phase %d: weight %v outside [0,%v]", i, p.Weight, float64(MaxWeight))
	}
	if n := p.sources(); n > 1 {
		return fmt.Errorf("scenario: phase %d: %d access sources (want at most one of workload, trace, mix)", i, n)
	}
	if !p.isSource() && p.Weight != 0 {
		return fmt.Errorf("scenario: phase %d: churn-only phase has weight %v (budget would never drain)", i, p.Weight)
	}
	if p.RSSGB != 0 {
		if p.Workload == "" {
			return fmt.Errorf("scenario: phase %d: rss_gb without a workload", i)
		}
		if !isFinite(p.RSSGB) || p.RSSGB <= 0 || p.RSSGB > MaxRSSGB {
			return fmt.Errorf("scenario: phase %d: rss_gb %v outside (0,%d]", i, p.RSSGB, MaxRSSGB)
		}
	}
	// Frees come first and must name distinct live regions.
	freed := map[string]bool{}
	for _, name := range p.Free {
		if _, ok := live[name]; !ok {
			return fmt.Errorf("scenario: phase %d: free of %q, which is not a live region", i, name)
		}
		if freed[name] {
			return fmt.Errorf("scenario: phase %d: region %q freed twice", i, name)
		}
		freed[name] = true
	}
	// Grows may reuse a just-freed name but not a live one.
	grown := map[string]bool{}
	for _, g := range p.Grow {
		if g.Name == "" {
			return fmt.Errorf("scenario: phase %d: grow with empty region name", i)
		}
		if len(g.Name) > 64 {
			return fmt.Errorf("scenario: phase %d: region name longer than 64 bytes", i)
		}
		if _, ok := live[g.Name]; ok && !freed[g.Name] {
			return fmt.Errorf("scenario: phase %d: grow of %q, which is already live", i, g.Name)
		}
		if grown[g.Name] {
			return fmt.Errorf("scenario: phase %d: region %q grown twice", i, g.Name)
		}
		grown[g.Name] = true
		if g.Bytes == 0 || g.Bytes > MaxRegionBytes {
			return fmt.Errorf("scenario: phase %d: region %q bytes %d outside [1,%d]", i, g.Name, g.Bytes, uint64(MaxRegionBytes))
		}
	}
	if len(p.Mix) > MaxMixEntries {
		return fmt.Errorf("scenario: phase %d: %d mix entries exceeds %d", i, len(p.Mix), MaxMixEntries)
	}
	for j, e := range p.Mix {
		// A mix may reference regions grown in this phase (churn applies
		// before accesses) as well as anything still live.
		_, wasLive := live[e.Region]
		if (!wasLive || freed[e.Region]) && !grown[e.Region] {
			return fmt.Errorf("scenario: phase %d mix %d: region %q is not live", i, j, e.Region)
		}
		if e.Weight < 0 || e.Weight > int(MaxWeight) {
			return fmt.Errorf("scenario: phase %d mix %d: weight %d outside [0,%d]", i, j, e.Weight, int(MaxWeight))
		}
		switch e.Dist {
		case "zipf":
			if !isFinite(e.S) || e.S <= 0 || e.S > 64 {
				return fmt.Errorf("scenario: phase %d mix %d: zipf exponent %v outside (0,64]", i, j, e.S)
			}
		case "uniform", "seq":
			if e.S != 0 {
				return fmt.Errorf("scenario: phase %d mix %d: s is only valid for zipf", i, j)
			}
		default:
			return fmt.Errorf("scenario: phase %d mix %d: unknown distribution %q", i, j, e.Dist)
		}
		if e.WritePercent < 0 || e.WritePercent > 100 {
			return fmt.Errorf("scenario: phase %d mix %d: write percent %d outside [0,100]", i, j, e.WritePercent)
		}
	}
	if p.Trace != "" && len(p.Trace) > 4096 {
		return fmt.Errorf("scenario: phase %d: trace path longer than 4096 bytes", i)
	}
	return nil
}

// FaultConfig returns the parsed fault plan (the zero config when the
// spec carries none). The spec must have validated.
func (s Spec) FaultConfig() tier.FaultConfig {
	fc, err := tier.ParseFaultSpec(s.Faults)
	if err != nil {
		panic(fmt.Sprintf("scenario: FaultConfig on unvalidated spec: %v", err))
	}
	return fc
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
