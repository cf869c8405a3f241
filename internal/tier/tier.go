// Package tier models physical memory tiers of a tiered-memory machine:
// a fast tier (local DRAM) and a capacity tier (NVM or CXL-attached
// memory). Each tier owns a set of 4KB physical frames managed by a
// buddy-lite allocator that can hand out either single base frames or
// 2MB-aligned huge frames (512 contiguous base frames), and carries the
// load/store latency model used by the simulator to charge every memory
// access the cost of the tier the page currently lives on.
package tier

import (
	"errors"
	"fmt"
)

// Architectural constants shared by the whole simulator (x86-64 style).
const (
	BasePageSize = 4096 // bytes in a base page
	SubPages     = 512  // base pages per 2MB huge page
	HugePageSize = BasePageSize * SubPages
)

// ID identifies a tier within a Machine: the index of the tier in its
// Topology chain. The fast tier is always FastTier; the historical
// two-tier machine (the paper's DRAM+NVM and DRAM+CXL setups) pairs it
// with CapacityTier, and deeper chains append tier 2, 3, ... below.
type ID int8

const (
	// FastTier is the top of the chain (local DRAM).
	FastTier ID = 0
	// CapacityTier is the tier directly below the fast tier: NVM or
	// CXL-attached memory in the default two-tier machine.
	CapacityTier ID = 1
	// NoTier marks an unplaced page.
	NoTier ID = -1
)

// String renders the conventional name of the tier index: "fast",
// "capacity", "tierN" for deeper chain positions, "none" for NoTier.
func (id ID) String() string {
	switch {
	case id == FastTier:
		return "fast"
	case id == CapacityTier:
		return "capacity"
	case id > CapacityTier:
		return fmt.Sprintf("tier%d", int8(id))
	default:
		return "none"
	}
}

// Kind describes the memory technology backing a tier. It selects the
// default latency profile; explicit latencies in Config override it.
type Kind int

const (
	DRAM Kind = iota
	NVM       // Intel Optane DCPMM-like
	CXL       // directly-attached CXL 1.1 memory (emulated in the paper)
	Far       // far memory: network/compressed tier below NVM
)

// String renders the conventional technology name of the kind.
func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case NVM:
		return "NVM"
	case CXL:
		return "CXL"
	case Far:
		return "Far"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Default latencies in nanoseconds, taken from the paper's evaluation
// setup (§6.1, §6.4): DRAM load ~80ns, Optane load ~300ns, emulated CXL
// load 177ns. Store latencies are slightly higher for NVM (write buffer
// drain) and close to load for DRAM/CXL. Far memory models a paged
// network/compressed tier an order of magnitude slower than NVM.
const (
	DRAMLoadNS  = 80
	DRAMStoreNS = 90
	NVMLoadNS   = 300
	NVMStoreNS  = 400
	CXLLoadNS   = 177
	CXLStoreNS  = 190
	FarLoadNS   = 2_500
	FarStoreNS  = 3_000
)

// Config describes one memory tier.
type Config struct {
	Name    string
	Kind    Kind
	Bytes   uint64 // capacity in bytes; rounded down to whole huge pages
	LoadNS  uint64 // 0 means "use Kind default"
	StoreNS uint64 // 0 means "use Kind default"
}

func (c *Config) fillDefaults() {
	if c.LoadNS == 0 || c.StoreNS == 0 {
		var l, s uint64
		switch c.Kind {
		case NVM:
			l, s = NVMLoadNS, NVMStoreNS
		case CXL:
			l, s = CXLLoadNS, CXLStoreNS
		case Far:
			l, s = FarLoadNS, FarStoreNS
		default:
			l, s = DRAMLoadNS, DRAMStoreNS
		}
		if c.LoadNS == 0 {
			c.LoadNS = l
		}
		if c.StoreNS == 0 {
			c.StoreNS = s
		}
	}
	if c.Name == "" {
		c.Name = c.Kind.String()
	}
}

// ErrOutOfMemory is returned when a tier cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("tier: out of memory")

// Frame is a physical base-frame number within one tier (frame 0 is the
// first 4KB of the tier). A huge-frame allocation returns the first of
// 512 contiguous, 2MB-aligned frames.
type Frame uint32

// blockState tracks one 2MB block of a tier for the buddy-lite allocator.
type blockState struct {
	freeBase  uint16 // number of free base frames in a broken block
	broken    bool   // block has been split into base frames
	allocated bool   // whole block handed out as a huge frame
}

// Tier is one memory tier: capacity, allocator and latency model.
// Tier is not safe for concurrent use; the simulator is single-threaded
// by design (deterministic virtual time).
type Tier struct {
	cfg Config

	totalBlocks int          // 2MB blocks
	blocks      []blockState // per-block allocator state
	freeBlocks  []uint32     // stack of pristine/coalesced 2MB block indexes
	freeBase    []Frame      // stack of free base frames from broken blocks

	usedFrames uint64 // allocated base-frame count (huge = 512)
}

// New creates a tier with the given configuration. Capacity is rounded
// down to a whole number of 2MB blocks; a tier must hold at least one.
func New(cfg Config) (*Tier, error) {
	cfg.fillDefaults()
	nBlocks := int(cfg.Bytes / HugePageSize)
	if nBlocks < 1 {
		return nil, fmt.Errorf("tier %s: capacity %d below one huge page", cfg.Name, cfg.Bytes)
	}
	t := &Tier{
		cfg:         cfg,
		totalBlocks: nBlocks,
		blocks:      make([]blockState, nBlocks),
		freeBlocks:  make([]uint32, 0, nBlocks),
	}
	// Push blocks so that block 0 is allocated first (stack order).
	for i := nBlocks - 1; i >= 0; i-- {
		t.freeBlocks = append(t.freeBlocks, uint32(i))
	}
	return t, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(cfg Config) *Tier {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the configured tier name.
func (t *Tier) Name() string { return t.cfg.Name }

// Kind returns the memory technology of the tier.
func (t *Tier) Kind() Kind { return t.cfg.Kind }

// LoadNS returns the load (read) latency of the tier in nanoseconds.
func (t *Tier) LoadNS() uint64 { return t.cfg.LoadNS }

// StoreNS returns the store (write) latency of the tier in nanoseconds.
func (t *Tier) StoreNS() uint64 { return t.cfg.StoreNS }

// AccessNS returns the latency of one access of the given kind.
func (t *Tier) AccessNS(write bool) uint64 {
	if write {
		return t.cfg.StoreNS
	}
	return t.cfg.LoadNS
}

// CapacityFrames returns the total number of base frames in the tier.
func (t *Tier) CapacityFrames() uint64 { return uint64(t.totalBlocks) * SubPages }

// CapacityBytes returns the usable capacity in bytes.
func (t *Tier) CapacityBytes() uint64 { return t.CapacityFrames() * BasePageSize }

// UsedFrames returns the number of allocated base frames.
func (t *Tier) UsedFrames() uint64 { return t.usedFrames }

// FreeFrames returns the number of free base frames (huge blocks count as
// 512 each; some of them may only be allocatable as base frames after
// breaking a block).
func (t *Tier) FreeFrames() uint64 { return t.CapacityFrames() - t.usedFrames }

// HasHugeFrame reports whether a 2MB allocation would currently succeed.
func (t *Tier) HasHugeFrame() bool { return len(t.freeBlocks) > 0 }

// AllocHuge allocates one 2MB-aligned huge frame (512 contiguous base
// frames) and returns its first frame number.
func (t *Tier) AllocHuge() (Frame, error) {
	if len(t.freeBlocks) == 0 {
		return 0, ErrOutOfMemory
	}
	b := t.freeBlocks[len(t.freeBlocks)-1]
	t.freeBlocks = t.freeBlocks[:len(t.freeBlocks)-1]
	st := &t.blocks[b]
	st.allocated = true
	t.usedFrames += SubPages
	return Frame(uint32(b) * SubPages), nil
}

// AllocBase allocates one 4KB base frame, breaking a pristine 2MB block
// into base frames if no loose frame is available.
func (t *Tier) AllocBase() (Frame, error) {
	if len(t.freeBase) == 0 {
		if len(t.freeBlocks) == 0 {
			return 0, ErrOutOfMemory
		}
		b := t.freeBlocks[len(t.freeBlocks)-1]
		t.freeBlocks = t.freeBlocks[:len(t.freeBlocks)-1]
		st := &t.blocks[b]
		st.broken = true
		st.freeBase = SubPages
		base := Frame(uint32(b) * SubPages)
		// Push in reverse so the lowest frame is allocated first.
		for i := SubPages - 1; i >= 0; i-- {
			t.freeBase = append(t.freeBase, base+Frame(i))
		}
	}
	f := t.freeBase[len(t.freeBase)-1]
	t.freeBase = t.freeBase[:len(t.freeBase)-1]
	t.blocks[f/SubPages].freeBase--
	t.usedFrames++
	return f, nil
}

// FreeHuge returns a huge frame previously obtained from AllocHuge.
func (t *Tier) FreeHuge(f Frame) {
	b := uint32(f) / SubPages
	st := &t.blocks[b]
	if !st.allocated || uint32(f)%SubPages != 0 {
		panic(fmt.Sprintf("tier %s: FreeHuge of non-huge frame %d", t.cfg.Name, f))
	}
	st.allocated = false
	t.usedFrames -= SubPages
	t.freeBlocks = append(t.freeBlocks, b)
}

// FreeBase returns a base frame previously obtained from AllocBase (or
// carved out of a huge frame via BreakHuge). When all 512 frames of a
// block become free the block is coalesced back into a huge frame.
func (t *Tier) FreeBase(f Frame) {
	b := uint32(f) / SubPages
	st := &t.blocks[b]
	if !st.broken {
		panic(fmt.Sprintf("tier %s: FreeBase frame %d in unbroken block", t.cfg.Name, f))
	}
	st.freeBase++
	t.usedFrames--
	if st.freeBase == SubPages {
		// Coalesce: drop the block's loose frames and return it whole.
		st.broken = false
		st.freeBase = 0
		keep := t.freeBase[:0]
		for _, fr := range t.freeBase {
			if uint32(fr)/SubPages != b {
				keep = append(keep, fr)
			}
		}
		t.freeBase = keep
		t.freeBlocks = append(t.freeBlocks, b)
	} else {
		t.freeBase = append(t.freeBase, f)
	}
}

// BreakHuge converts an allocated huge frame into 512 allocated base
// frames in place (used when a huge page is split without migrating its
// subpages). The caller then owns each base frame individually and may
// FreeBase any subset of them.
func (t *Tier) BreakHuge(f Frame) {
	b := uint32(f) / SubPages
	st := &t.blocks[b]
	if !st.allocated || uint32(f)%SubPages != 0 {
		panic(fmt.Sprintf("tier %s: BreakHuge of non-huge frame %d", t.cfg.Name, f))
	}
	st.allocated = false
	st.broken = true
	st.freeBase = 0 // all 512 remain allocated
}

// PhysAddr identifies a physical base frame across tiers.
type PhysAddr struct {
	Tier  ID
	Frame Frame
}
