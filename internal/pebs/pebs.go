// Package pebs models processor event-based sampling as used by MEMTIS's
// ksampled thread (§4.1.1): retired LLC load misses and retired store
// instructions are sampled with independent periods, and a feedback
// controller adjusts both periods so that the CPU consumed processing
// samples stays under a budget (3% of one core by default), using an
// exponential moving average with hysteresis exactly as the paper
// describes.
package pebs

import "memtis/internal/obs"

// Sample is one PEBS record: the virtual page number of the accessed
// address plus the access kind.
type Sample struct {
	VPN   uint64
	Write bool
}

// Config tunes the sampler. Zero fields take paper defaults.
type Config struct {
	LoadPeriod  uint64  // initial sampling period for LLC load misses (paper: 200)
	StorePeriod uint64  // initial sampling period for stores (paper: 100000)
	MinPeriod   uint64  // lower bound for the load period
	MaxPeriod   uint64  // upper bound for the load period
	CPUBudget   float64 // ksampled CPU cap as fraction of one core (paper: 0.03)
	Hysteresis  float64 // dead band around the budget (paper: 0.005)
	CostNS      uint64  // processing cost per sample
	AdjustNS    uint64  // virtual time between controller invocations
}

// DefaultConfig returns the paper's sampler parameters with periods and
// per-sample cost scaled 10x down to match the simulator's compressed
// footprints (DESIGN.md §4): the paper samples loads at 200..1400 with
// ~600ns processing per sample; we sample at 20..140 with 160ns so the
// CPU-usage arithmetic (and hence the 3% controller behaviour) is
// unchanged while histograms see enough samples per cooling period.
func DefaultConfig() Config {
	return Config{
		LoadPeriod:  20,
		StorePeriod: 10_000,
		MinPeriod:   20,
		MaxPeriod:   140, // paper: roms is throttled from 200 to 1400
		CPUBudget:   0.03,
		Hysteresis:  0.005,
		CostNS:      160,
		AdjustNS:    2_000_000, // 2ms of virtual time
	}
}

// Sampler emits a Sample every loadPeriod-th load (and storePeriod-th
// store) fed to it, and self-adjusts its period from its own measured
// CPU usage. It is driven with virtual time by the simulator.
//
// The per-kind state is a precomputed skip countdown rather than an
// incrementing counter compared against the period: a non-sampled
// access costs one decrement and one branch on the hot path, and the
// countdown value doubles as the distance to the next sample, which is
// what lets FeedFast prove an access cannot sample without consulting
// the period at all.
type Sampler struct {
	cfg         Config
	loadPeriod  uint64
	storePeriod uint64
	loadRem     uint64 // loads until the next load sample (fires at 0)
	storeRem    uint64 // stores until the next store sample
	nextAdjust  uint64 // virtual deadline of the next controller run

	// Trace receives sampler_adjust/sampler_overflow events from the
	// period controller. Set by the owning policy at Attach.
	Trace *obs.Tracer

	samples     uint64 // total samples emitted
	spentNS     uint64 // total processing time
	winSamples  uint64 // samples since last adjustment
	lastAdjust  uint64 // virtual time of last adjustment
	emaCPU      float64
	emaValid    bool
	adjustments int
	sumCPU      float64 // for average-usage reporting
	nCPU        uint64
}

// NewSampler builds a sampler; zero config fields take defaults.
func NewSampler(cfg Config) *Sampler {
	def := DefaultConfig()
	if cfg.LoadPeriod == 0 {
		cfg.LoadPeriod = def.LoadPeriod
	}
	if cfg.StorePeriod == 0 {
		cfg.StorePeriod = def.StorePeriod
	}
	if cfg.MinPeriod == 0 {
		cfg.MinPeriod = def.MinPeriod
	}
	if cfg.MaxPeriod == 0 {
		cfg.MaxPeriod = def.MaxPeriod
	}
	if cfg.CPUBudget == 0 {
		cfg.CPUBudget = def.CPUBudget
	}
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = def.Hysteresis
	}
	if cfg.CostNS == 0 {
		cfg.CostNS = def.CostNS
	}
	if cfg.AdjustNS == 0 {
		cfg.AdjustNS = def.AdjustNS
	}
	return &Sampler{
		cfg:         cfg,
		loadPeriod:  cfg.LoadPeriod,
		storePeriod: cfg.StorePeriod,
		loadRem:     cfg.LoadPeriod,
		storeRem:    cfg.StorePeriod,
		nextAdjust:  cfg.AdjustNS,
	}
}

// Feed presents one memory access to the PMU. It returns (sample, true)
// when this access is the one the PMU samples.
func (s *Sampler) Feed(vpn uint64, write bool) (Sample, bool) {
	if write {
		s.storeRem--
		if s.storeRem == 0 {
			s.storeRem = s.storePeriod
			return s.emit(vpn, true), true
		}
		return Sample{}, false
	}
	s.loadRem--
	if s.loadRem == 0 {
		s.loadRem = s.loadPeriod
		return s.emit(vpn, false), true
	}
	return Sample{}, false
}

// FeedFast consumes one access if and only if doing so is provably
// equivalent to Feed followed by MaybeAdjust(now) with neither firing:
// the countdown for the access kind does not reach zero and the period
// controller is not yet due. It returns false — consuming nothing —
// when the caller must take the full Feed/MaybeAdjust path instead, so
// the sample stream and adjustment schedule stay byte-identical
// whichever mix of the two entry points drives the sampler.
func (s *Sampler) FeedFast(write bool, now uint64) bool {
	if now >= s.nextAdjust {
		return false
	}
	if write {
		if s.storeRem <= 1 {
			return false
		}
		s.storeRem--
		return true
	}
	if s.loadRem <= 1 {
		return false
	}
	s.loadRem--
	return true
}

func (s *Sampler) emit(vpn uint64, write bool) Sample {
	s.samples++
	s.winSamples++
	s.spentNS += s.cfg.CostNS
	return Sample{VPN: vpn, Write: write}
}

// MaybeAdjust runs the period controller if at least AdjustNS of virtual
// time elapsed since the previous invocation (§4.1.1). now is the
// simulator's virtual clock.
func (s *Sampler) MaybeAdjust(now uint64) {
	if now < s.nextAdjust {
		return
	}
	elapsed := now - s.lastAdjust
	if s.lastAdjust == 0 && s.winSamples == 0 {
		// Nothing observed yet; just start the window.
		s.lastAdjust = now
		s.nextAdjust = now + s.cfg.AdjustNS
		return
	}
	usage := float64(s.winSamples*s.cfg.CostNS) / float64(elapsed)
	if s.emaValid {
		s.emaCPU = 0.7*s.emaCPU + 0.3*usage
	} else {
		s.emaCPU = usage
		s.emaValid = true
	}
	s.sumCPU += s.emaCPU
	s.nCPU++
	// Hysteresis: only act when the EMA leaves the dead band.
	prev := s.loadPeriod
	switch {
	case s.emaCPU > s.cfg.CPUBudget+s.cfg.Hysteresis:
		s.setLoadPeriod(s.loadPeriod + maxu(s.loadPeriod/4, 50))
		if s.loadPeriod == prev {
			// Wanted to throttle but the period is pinned at MaxPeriod:
			// ksampled is over budget and cannot back off further.
			s.Trace.Emit(obs.EvSamplerOverflow, 0, false, 0, s.loadPeriod)
		}
	case s.emaCPU < s.cfg.CPUBudget-s.cfg.Hysteresis && s.loadPeriod > s.cfg.MinPeriod:
		s.setLoadPeriod(s.loadPeriod - maxu(s.loadPeriod/8, 25))
	}
	if s.loadPeriod != prev {
		s.Trace.Emit(obs.EvSamplerAdjust, 0, false, 0, s.loadPeriod)
	}
	s.adjustments++
	s.winSamples = 0
	s.lastAdjust = now
	s.nextAdjust = now + s.cfg.AdjustNS
}

func (s *Sampler) setLoadPeriod(p uint64) {
	if p < s.cfg.MinPeriod {
		p = s.cfg.MinPeriod
	}
	if p > s.cfg.MaxPeriod {
		p = s.cfg.MaxPeriod
	}
	// Stores scale with the same factor relative to the initial ratio.
	sp := p * (s.cfg.StorePeriod / s.cfg.LoadPeriod)
	if sp == 0 {
		sp = 1
	}
	s.loadRem = retarget(s.loadRem, s.loadPeriod, p)
	s.storeRem = retarget(s.storeRem, s.storePeriod, sp)
	s.loadPeriod = p
	s.storePeriod = sp
}

// retarget translates a skip countdown taken against oldP onto newP,
// preserving the count of accesses already elapsed in the current
// window: the next sample still fires once newP accesses have passed
// since the previous one, or on the very next access when that point
// is already overdue — exactly what an incrementing counter compared
// against the new period would do.
func retarget(rem, oldP, newP uint64) uint64 {
	done := oldP - rem
	if done >= newP {
		return 1
	}
	return newP - done
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Adjustments returns how often the period controller has run — the
// number of completed measurement windows. Budget assertions over
// AvgCPUUsage are only meaningful once enough windows have elapsed for
// the throttling transient to decay (the paper's controller, too, needs
// a few 2ms windows to back roms off from 200 to 1400).
func (s *Sampler) Adjustments() int { return s.adjustments }

// LoadPeriod returns the current load-miss sampling period.
func (s *Sampler) LoadPeriod() uint64 { return s.loadPeriod }

// StorePeriod returns the current store sampling period.
func (s *Sampler) StorePeriod() uint64 { return s.storePeriod }

// Samples returns the total number of samples emitted.
func (s *Sampler) Samples() uint64 { return s.samples }

// SpentNS returns the total virtual CPU time consumed processing samples.
func (s *Sampler) SpentNS() uint64 { return s.spentNS }

// AvgCPUUsage returns the run-average of the usage EMA.
func (s *Sampler) AvgCPUUsage() float64 {
	if s.nCPU == 0 {
		return 0
	}
	return s.sumCPU / float64(s.nCPU)
}
