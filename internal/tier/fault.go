package tier

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"memtis/internal/dist"
)

// This file is the fault-injection schedule of the simulated machine:
// a deterministic, seed-derived plan of transient migration-copy
// failures, bandwidth-throttling windows and per-tier stall bursts.
// The plan only *decides* — the VM's transactional migration and the
// machine's access loop consult it and charge the consequences — so
// everything here is pure arithmetic over the virtual clock and a
// private counter-mode PRNG, and a fixed (seed, access stream) pair
// always produces the same fault history regardless of wall-clock
// scheduling or runner worker count (DESIGN.md §6).

// Fault-plan defaults, applied by NewFaultPlan for fields left zero.
const (
	// DefaultMaxRetries bounds how often a migration transaction is
	// retried after an aborted copy before the caller gives up.
	DefaultMaxRetries = 3
	// DefaultBackoffNS is the base retry backoff; it doubles per retry.
	DefaultBackoffNS = 20_000
	// DefaultThrottleFactor multiplies migration copy cost inside a
	// bandwidth-throttling window.
	DefaultThrottleFactor = 4
	// MaxRetriesCap bounds MaxRetries so a retry loop can never stall
	// the application unboundedly (the conformance suite derives its
	// stall bound from this cap).
	MaxRetriesCap = 16
	// MaxThrottleFactor bounds the copy-cost multiplier.
	MaxThrottleFactor = 1024
	// maxBackoffShift caps the exponential backoff doubling.
	maxBackoffShift = 10
)

// FaultConfig describes the fault schedule of one machine. The zero
// value disables fault injection entirely: no field of the simulator
// behaves differently, no decision stream is consumed, and traces stay
// byte-identical to a pre-fault build.
type FaultConfig struct {
	// Seed derives the transient-failure decision stream. 0 lets the
	// machine derive one from its own RNG seed, so matrix cells with
	// per-cell seeds get independent fault histories automatically.
	Seed int64

	// MigrateFailPpm is the probability, in parts per million, that one
	// migration copy fails transiently and the transaction aborts
	// (rolls back to the source mapping). 0 disables copy faults.
	MigrateFailPpm uint32
	// MaxRetries bounds the retries the shared policy helpers attempt
	// per logical migration after aborted copies (0 = DefaultMaxRetries
	// when copy faults are enabled; capped at MaxRetriesCap).
	MaxRetries int
	// BackoffNS is the base virtual-time retry backoff, doubled per
	// retry (0 = DefaultBackoffNS).
	BackoffNS uint64

	// ThrottlePeriodNS/ThrottleDutyNS define bandwidth-throttling
	// windows: for the first ThrottleDutyNS of every ThrottlePeriodNS
	// of virtual time, migration copies cost ThrottleFactor times as
	// much. With no Admission configured, the shared policy helpers
	// (policy.Base) defer async migrations inside a window, while
	// MEMTIS's kmigrated, when no mover is set, copies inline at the
	// throttled cost; the background mover always holds its queue
	// until the window closes. ThrottlePeriodNS == 0 disables
	// throttling.
	ThrottlePeriodNS uint64
	ThrottleDutyNS   uint64
	// ThrottleFactor is the copy-cost multiplier inside a window
	// (0 = DefaultThrottleFactor).
	ThrottleFactor uint64

	// StallPeriodNS/StallDutyNS define per-tier stall bursts: for the
	// first StallDutyNS of every StallPeriodNS, each access to
	// StallTier pays StallNS extra. StallPeriodNS == 0 disables bursts.
	StallPeriodNS uint64
	StallDutyNS   uint64
	// StallTier is the tier whose accesses stall (FastTier or
	// CapacityTier; the zero value stalls the fast tier).
	StallTier ID
	// StallNS is the extra per-access latency during a burst.
	StallNS uint64
}

// Enabled reports whether any fault mechanism is configured.
func (c FaultConfig) Enabled() bool {
	return c.MigrateFailPpm > 0 || c.ThrottlePeriodNS > 0 || c.StallPeriodNS > 0
}

// Validate rejects configurations the plan cannot honour
// deterministically or that escape the documented bounds.
func (c FaultConfig) Validate() error {
	if c.MigrateFailPpm > 1_000_000 {
		return fmt.Errorf("tier: fault rate %dppm exceeds 1000000", c.MigrateFailPpm)
	}
	if c.MaxRetries < 0 || c.MaxRetries > MaxRetriesCap {
		return fmt.Errorf("tier: retries %d outside [0,%d]", c.MaxRetries, MaxRetriesCap)
	}
	if c.ThrottleFactor > MaxThrottleFactor {
		return fmt.Errorf("tier: throttle factor %d exceeds %d", c.ThrottleFactor, MaxThrottleFactor)
	}
	if c.ThrottlePeriodNS > 0 && c.ThrottleDutyNS > c.ThrottlePeriodNS {
		return fmt.Errorf("tier: throttle duty %dns exceeds period %dns", c.ThrottleDutyNS, c.ThrottlePeriodNS)
	}
	if c.StallPeriodNS > 0 && c.StallDutyNS > c.StallPeriodNS {
		return fmt.Errorf("tier: stall duty %dns exceeds period %dns", c.StallDutyNS, c.StallPeriodNS)
	}
	if c.StallTier < FastTier || c.StallTier >= ID(MaxTiers) {
		return fmt.Errorf("tier: stall tier %v is not a real tier", c.StallTier)
	}
	return nil
}

// FaultPlan is the runtime form of a FaultConfig, owned by exactly one
// machine (its decision counter is machine-local state, like the
// machine RNG). A nil *FaultPlan is valid and every method on it is the
// disabled case, so consult sites need no guards.
type FaultPlan struct {
	cfg FaultConfig
	seq uint64 // copy-fault decisions consumed so far

	// Window-entry bookkeeping for fault_window events: 1 + the index
	// of the last window whose start was reported, 0 before any.
	seenThrottle uint64
	seenStall    uint64
}

// NewFaultPlan builds a plan, filling defaulted fields. It returns nil
// for a disabled config — the representation every consult site treats
// as "no faults" — and panics on an invalid one (configs from user
// input are validated by ParseFaultSpec first).
func NewFaultPlan(cfg FaultConfig) *FaultPlan {
	if !cfg.Enabled() {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.MigrateFailPpm > 0 && cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BackoffNS == 0 {
		cfg.BackoffNS = DefaultBackoffNS
	}
	if cfg.ThrottlePeriodNS > 0 && cfg.ThrottleFactor == 0 {
		cfg.ThrottleFactor = DefaultThrottleFactor
	}
	return &FaultPlan{cfg: cfg}
}

// Config returns the effective (default-filled) configuration; the
// zero FaultConfig on a nil plan.
func (f *FaultPlan) Config() FaultConfig {
	if f == nil {
		return FaultConfig{}
	}
	return f.cfg
}

// FailCopy consumes one decision of the failure stream and reports
// whether the current migration copy faults. The stream is SplitMix64
// in counter mode over the plan's seed — reproducible, seekable and
// independent of every other random source. Each call advances it, so
// the n-th migration attempt of a run always sees the n-th decision no
// matter when in virtual time it happens.
func (f *FaultPlan) FailCopy() bool {
	if f == nil || f.cfg.MigrateFailPpm == 0 {
		return false
	}
	f.seq++
	return dist.SplitMix64(uint64(f.cfg.Seed)^f.seq)%1_000_000 < uint64(f.cfg.MigrateFailPpm)
}

// ThrottleActive reports whether now falls inside a bandwidth-
// throttling window.
func (f *FaultPlan) ThrottleActive(now uint64) bool {
	return f != nil && f.cfg.ThrottlePeriodNS > 0 && now%f.cfg.ThrottlePeriodNS < f.cfg.ThrottleDutyNS
}

// CopyCostFactor returns the migration copy-cost multiplier at now
// (1 outside throttle windows and on a nil plan).
func (f *FaultPlan) CopyCostFactor(now uint64) uint64 {
	if f.ThrottleActive(now) {
		return f.cfg.ThrottleFactor
	}
	return 1
}

// AccessStallNS returns the extra latency one access to tier t pays at
// now (0 outside stall bursts, for other tiers, and on a nil plan).
func (f *FaultPlan) AccessStallNS(t ID, now uint64) uint64 {
	if f == nil || f.cfg.StallPeriodNS == 0 || t != f.cfg.StallTier {
		return 0
	}
	if now%f.cfg.StallPeriodNS < f.cfg.StallDutyNS {
		return f.cfg.StallNS
	}
	return 0
}

// MaxRetries returns the retry bound the shared migration helpers must
// honour (0 on a nil plan: a failed migration is final).
func (f *FaultPlan) MaxRetries() int {
	if f == nil {
		return 0
	}
	return f.cfg.MaxRetries
}

// RetryBackoffNS returns the virtual-time backoff charged before retry
// attempt (0-based): BackoffNS doubled per attempt, with the doubling
// capped so the sum stays bounded.
func (f *FaultPlan) RetryBackoffNS(attempt int) uint64 {
	if f == nil {
		return 0
	}
	if attempt > maxBackoffShift {
		attempt = maxBackoffShift
	}
	return f.cfg.BackoffNS << uint(attempt)
}

// Fault-window kinds reported by PollWindows and carried in the aux
// field of fault_window events.
const (
	ThrottleWindow = 1
	StallWindow    = 2
)

// PollWindows reports windows newly entered at now since the previous
// poll, so the machine can emit one fault_window event per window
// start. Polling is idempotent within a window and cheap enough for
// the access loop of a faults-enabled run.
func (f *FaultPlan) PollWindows(now uint64) (throttleStarted, stallStarted bool) {
	if f == nil {
		return false, false
	}
	if f.cfg.ThrottlePeriodNS > 0 && now%f.cfg.ThrottlePeriodNS < f.cfg.ThrottleDutyNS {
		if win := now/f.cfg.ThrottlePeriodNS + 1; win != f.seenThrottle {
			f.seenThrottle = win
			throttleStarted = true
		}
	}
	if f.cfg.StallPeriodNS > 0 && now%f.cfg.StallPeriodNS < f.cfg.StallDutyNS {
		if win := now/f.cfg.StallPeriodNS + 1; win != f.seenStall {
			f.seenStall = win
			stallStarted = true
		}
	}
	return throttleStarted, stallStarted
}

// QuietUntil returns the first virtual time at or after now from which
// an access could pay a stall (AccessStallNS) or start a window
// PollWindows has not reported: an access that starts before it needs
// neither call, which lets the machine's batch loop run under a fault
// plan. It returns now inside a stall burst or an unreported throttle
// window, and MaxUint64 on a nil plan or one without windows. On a nil
// plan it inlines to one compare.
func (f *FaultPlan) QuietUntil(now uint64) uint64 {
	if f == nil {
		return math.MaxUint64
	}
	return f.quietUntil(now)
}

func (f *FaultPlan) quietUntil(now uint64) uint64 {
	q := uint64(math.MaxUint64)
	if p, d := f.cfg.ThrottlePeriodNS, f.cfg.ThrottleDutyNS; p > 0 && d > 0 {
		if now%p < d && now/p+1 != f.seenThrottle {
			return now
		}
		q = now - now%p + p
	}
	if p, d := f.cfg.StallPeriodNS, f.cfg.StallDutyNS; p > 0 && d > 0 {
		if now%p < d {
			return now
		}
		q = min(q, now-now%p+p)
	}
	return q
}

// ParseFaultSpec decodes the CLI fault specification: comma-separated
// key=value clauses, all optional, in any order.
//
//	rate=F          copy-failure probability: fraction ("0.01") or ppm ("10000ppm")
//	retries=N       retry bound per migration (default 3, max 16)
//	backoff=DUR     base retry backoff, doubled per retry (default 20us)
//	throttle=DUTY/PERIOD[:Nx]
//	                bandwidth-throttle windows: active DUTY out of every
//	                PERIOD, copies cost Nx as much (default 4x)
//	stall=TIER:DUTY/PERIOD:DUR
//	                stall bursts: accesses to TIER (fast|cap) pay DUR
//	                extra for DUTY out of every PERIOD
//	seed=N          decision-stream seed override
//
// Durations take ns, us, ms or s suffixes. Example:
//
//	rate=0.01,retries=3,throttle=200us/1ms:4x,stall=cap:100us/1ms:150ns
//
// The empty string decodes to the disabled zero config.
func ParseFaultSpec(s string) (FaultConfig, error) {
	var c FaultConfig
	s = strings.TrimSpace(s)
	if s == "" {
		return c, nil
	}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return c, fmt.Errorf("tier: fault spec clause %q is not key=value", clause)
		}
		var err error
		switch key {
		case "rate":
			err = parseRate(val, &c.MigrateFailPpm)
		case "retries":
			var n int64
			n, err = strconv.ParseInt(val, 10, 32)
			c.MaxRetries = int(n)
		case "backoff":
			c.BackoffNS, err = parseDuration(val)
		case "throttle":
			err = parseThrottle(val, &c)
		case "stall":
			err = parseStall(val, &c)
		case "seed":
			c.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return c, fmt.Errorf("tier: unknown fault spec key %q", key)
		}
		if err != nil {
			return c, fmt.Errorf("tier: fault spec %q: %w", clause, err)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

func parseRate(val string, ppm *uint32) error {
	if p, ok := strings.CutSuffix(val, "ppm"); ok {
		n, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return err
		}
		if n > 1_000_000 {
			return fmt.Errorf("rate %dppm exceeds 1000000", n)
		}
		*ppm = uint32(n)
		return nil
	}
	fr, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	if fr < 0 || fr > 1 {
		return fmt.Errorf("rate %v outside [0,1]", fr)
	}
	*ppm = uint32(fr * 1_000_000)
	return nil
}

func parseThrottle(val string, c *FaultConfig) error {
	// DUTY/PERIOD[:Nx]
	if body, fac, ok := strings.Cut(val, ":"); ok {
		fx, found := strings.CutSuffix(fac, "x")
		if !found {
			return fmt.Errorf("throttle factor %q lacks the x suffix", fac)
		}
		n, err := strconv.ParseUint(fx, 10, 32)
		if err != nil {
			return err
		}
		if n < 1 {
			return fmt.Errorf("throttle factor must be >= 1")
		}
		c.ThrottleFactor = n
		val = body
	}
	return parseWindow(val, &c.ThrottleDutyNS, &c.ThrottlePeriodNS)
}

func parseStall(val string, c *FaultConfig) error {
	// TIER:DUTY/PERIOD:DUR
	parts := strings.Split(val, ":")
	if len(parts) != 3 {
		return fmt.Errorf("stall spec %q is not TIER:DUTY/PERIOD:DUR", val)
	}
	switch {
	case parts[0] == "fast":
		c.StallTier = FastTier
	case parts[0] == "cap" || parts[0] == "capacity":
		c.StallTier = CapacityTier
	case strings.HasPrefix(parts[0], "tier"):
		n, err := strconv.ParseInt(strings.TrimPrefix(parts[0], "tier"), 10, 8)
		if err != nil || n < 2 || n >= MaxTiers {
			return fmt.Errorf("unknown stall tier %q (want fast, cap or tier2..tier%d)", parts[0], MaxTiers-1)
		}
		c.StallTier = ID(n)
	default:
		return fmt.Errorf("unknown stall tier %q (want fast, cap or tierN)", parts[0])
	}
	if err := parseWindow(parts[1], &c.StallDutyNS, &c.StallPeriodNS); err != nil {
		return err
	}
	var err error
	c.StallNS, err = parseDuration(parts[2])
	return err
}

func parseWindow(val string, duty, period *uint64) error {
	d, p, ok := strings.Cut(val, "/")
	if !ok {
		return fmt.Errorf("window %q is not DUTY/PERIOD", val)
	}
	var err error
	if *duty, err = parseDuration(d); err != nil {
		return err
	}
	if *period, err = parseDuration(p); err != nil {
		return err
	}
	if *period == 0 {
		return fmt.Errorf("window period must be positive")
	}
	return nil
}

// durUnits is ordered longest-suffix-first so "ns" is not mistaken for
// "s". Values are nanoseconds per unit.
var durUnits = []struct {
	suffix string
	ns     uint64
}{
	{"ns", 1}, {"us", 1_000}, {"ms", 1_000_000}, {"s", 1_000_000_000},
}

func parseDuration(val string) (uint64, error) {
	for _, u := range durUnits {
		body, ok := strings.CutSuffix(val, u.suffix)
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(body, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("duration %q: %w", val, err)
		}
		if n > (1<<63)/u.ns {
			return 0, fmt.Errorf("duration %q overflows", val)
		}
		return n * u.ns, nil
	}
	return 0, fmt.Errorf("duration %q lacks a ns/us/ms/s suffix", val)
}

// fmtDuration renders ns in the largest exact unit, inverting
// parseDuration (String/ParseFaultSpec round-trip exactly).
func fmtDuration(ns uint64) string {
	for i := len(durUnits) - 1; i >= 0; i-- {
		u := durUnits[i]
		if ns%u.ns == 0 && (ns > 0 || u.ns == 1) {
			return strconv.FormatUint(ns/u.ns, 10) + u.suffix
		}
	}
	return strconv.FormatUint(ns, 10) + "ns"
}

// String renders the canonical spec form: ParseFaultSpec(c.String())
// returns c for any valid config. The disabled config renders as "".
func (c FaultConfig) String() string {
	var parts []string
	if c.MigrateFailPpm > 0 {
		parts = append(parts, fmt.Sprintf("rate=%dppm", c.MigrateFailPpm))
	}
	if c.MaxRetries > 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", c.MaxRetries))
	}
	if c.BackoffNS > 0 {
		parts = append(parts, "backoff="+fmtDuration(c.BackoffNS))
	}
	if c.ThrottlePeriodNS > 0 {
		w := "throttle=" + fmtDuration(c.ThrottleDutyNS) + "/" + fmtDuration(c.ThrottlePeriodNS)
		if c.ThrottleFactor > 0 {
			w += fmt.Sprintf(":%dx", c.ThrottleFactor)
		}
		parts = append(parts, w)
	}
	if c.StallPeriodNS > 0 {
		name := "fast"
		switch {
		case c.StallTier == CapacityTier:
			name = "cap"
		case c.StallTier > CapacityTier:
			name = c.StallTier.String()
		}
		parts = append(parts, "stall="+name+":"+fmtDuration(c.StallDutyNS)+"/"+
			fmtDuration(c.StallPeriodNS)+":"+fmtDuration(c.StallNS))
	}
	if c.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", c.Seed))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
