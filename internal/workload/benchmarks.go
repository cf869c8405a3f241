package workload

import (
	"math/rand"

	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// blockZipf draws Zipf-skewed indexes over 2MB blocks of a region, with
// the block ranking scattered by a permutation, and a uniform subpage
// offset within the block. Hot data is therefore skewed at huge-page
// granularity (so distribution-aware placement is rewarded) while each
// huge page keeps uniformly-accessed subpages (high utilization — these
// are the workloads MEMTIS should NOT split).
type blockZipf struct {
	r      region
	bperm  perm
	z      zipf
	rng    *rand.Rand
	blocks uint64
}

func newBlockZipf(rng *rand.Rand, s float64, r region) blockZipf {
	blocks := r.pages / tier.SubPages
	if blocks < 1 {
		blocks = 1
	}
	return blockZipf{r: r, bperm: newPerm(rng, blocks), z: newZipf(rng, s, blocks), rng: rng, blocks: blocks}
}

func (b blockZipf) next() uint64 {
	blk := b.bperm.at(b.z.next())
	off := b.rng.Uint64() % tier.SubPages
	if b.r.pages < tier.SubPages {
		// A region under one block: the one block's offsets wrap.
		return b.r.vpnAt(blk*tier.SubPages + off)
	}
	return b.r.at(blk*tier.SubPages + off)
}

// buildGraph500 models Graph500 (§6.2.1): edge-list generation writes a
// large region frequently, then BFS hammers a small vertex set (hot,
// dense) while probing edges with block-level skew. The vertex region
// is allocated after the graph, so tiering systems must earn its
// placement by migrating.
func buildGraph500(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	main := c.spec.RSSBytes() - c.spec.SmallBytes()
	edges := c.reserve(main * 90 / 100)
	vertices := c.reserve(main * 10 / 100)
	c.touchSmall(small)
	c.touchAll(edges)
	// Generation phase: another sequential write sweep over the edge
	// region (frequent large-region accesses), ~12% of the budget,
	// measured from the space's access count when it starts.
	var gen uint64
	c.init = append(c.init, Lazy(func(done uint64) Stream {
		return Sweep(func() (uint64, bool) {
			gen++
			return edges.vpnAt(gen - 1), true
		}, min(done+c.budget*12/100, c.budget), Unbounded, 1)
	}))
	c.touchAll(vertices)
	zv := newZipf(c.rng, 1.25, vertices.pages)
	ze := newBlockZipf(c.rng, 1.45, edges)
	smallStep := smallStepper(c, small)
	return c.steady(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 550:
			return vertices.at(zv.next()), c.pick(1, 3)
		case r < 998:
			return ze.next(), false
		default:
			return smallStep()
		}
	})
}

// buildPageRank models GAP PageRank on the Twitter graph (§6.2.1): the
// graph loads first (filling the fast tier with soon-cold edges), then
// iterations stream the edge list while updating a small, persistently
// hot rank vector. The explicit hot set (rank vector) is well below the
// fast tier size, reproducing HeMem's Figure 2 pathology; the streamed
// edges bait recency-based systems into promotion churn.
func buildPageRank(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	main := c.spec.RSSBytes() - c.spec.SmallBytes()
	edges := c.reserve(main * 88 / 100)
	ranks := c.reserve(main * 12 / 100)
	c.touchSmall(small)
	c.touchAll(edges)
	c.touchAll(ranks)
	var cursor uint64
	zr := newZipf(c.rng, 1.05, ranks.pages)
	smallStep := smallStepper(c, small)
	return c.steady(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 420:
			cursor++
			return edges.vpnAt(cursor), false
		case r < 998:
			return ranks.at(zr.next()), c.pick(1, 2)
		default:
			return smallStep()
		}
	})
}

// buildXSBench models the Monte Carlo neutron transport kernel
// (§6.2.2): one region allocated and touched early whose first ~35%
// (the unionized energy grid) is very hot, with block-level skew inside
// it. The hot region exceeds the fast tier except at 1:2, and because
// it is allocated early, AutoNUMA's no-demotion placement happens to
// work well at 1:2 — exactly the paper's observation.
func buildXSBench(c *ctx) Stream {
	main := c.reserve(c.spec.RSSBytes())
	c.touchAll(main)
	hotPages := main.pages * 35 / 100
	hot := region{r: vm.Region{BaseVPN: main.r.BaseVPN, Pages: hotPages}, pages: hotPages}
	zh := newBlockZipf(c.rng, 1.30, hot)
	return c.steady(func() (uint64, bool) {
		if c.pick(88, 100) {
			return zh.next(), c.pick(1, 10)
		}
		return main.r.BaseVPN + hotPages + c.rng.Uint64()%(main.pages-hotPages), false
	})
}

// buildLiblinear models linear classification over KDD12 (§6.2.3): the
// feature matrix loads first; training then revisits feature blocks
// with block-level skew while a compact model region (allocated after
// the data) stays hot. Hot huge pages exhibit high utilization
// (Figure 3a), so MEMTIS keeps them whole.
func buildLiblinear(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	main := c.spec.RSSBytes() - c.spec.SmallBytes()
	features := c.reserve(main * 92 / 100)
	model := c.reserve(main * 8 / 100)
	c.touchSmall(small)
	c.touchAll(features)
	c.touchAll(model)
	var cursor uint64
	zf := newBlockZipf(c.rng, 1.40, features)
	zm := newZipf(c.rng, 1.15, model.pages)
	smallStep := smallStepper(c, small)
	return c.steady(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 240:
			cursor++
			return features.vpnAt(cursor), false
		case r < 660:
			return zf.next(), false
		case r < 998:
			return model.at(zm.next()), c.pick(3, 10)
		default:
			return smallStep()
		}
	})
}

// buildSilo models the Silo in-memory database under YCSB-C (§6.2.4):
// Zipfian lookups over hash-scattered records at 4KB granularity, so
// each huge page holds only a few hot subpages (Figure 3b) — the
// showcase for skewness-aware splitting. Every subpage is written
// during population, so splitting reclaims no memory (no bloat).
func buildSilo(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	heap := c.reserve(c.spec.RSSBytes() - c.spec.SmallBytes())
	c.touchSmall(small)
	c.touchAll(heap) // populate: all subpages written
	pm := newPerm(c.rng, heap.pages)
	z := newZipf(c.rng, 1.15, heap.pages)
	smallStep := smallStepper(c, small)
	return c.steady(func() (uint64, bool) {
		if c.pick(96, 100) {
			return heap.at(pm.at(z.next())), false
		}
		return smallStep()
	})
}

// buildBtree models the Mitosis BTree lookup benchmark (§6.2.5): the
// node heap suffers classic huge-page memory bloat — only ~40% of
// subpages are ever written — and lookups are skewed over scattered
// leaves, so hot huge pages have low utilization. Splitting both
// improves the hit ratio and reclaims the never-written subpages.
func buildBtree(c *ctx) Stream {
	inner := c.reserveSmall(c.spec.SmallBytes()) // internal nodes: hot
	heap := c.reserve(c.spec.RSSBytes() - c.spec.SmallBytes())
	c.touchSmall(inner)
	// Sparse population: write only ~40% of subpages, hash-scattered.
	var touched []uint32
	for i := uint64(0); i < heap.pages; i++ {
		if (i*2654435761)%100 < 40 {
			touched = append(touched, uint32(i))
		}
	}
	var next int
	c.init = append(c.init, Sweep(func() (uint64, bool) {
		next++
		return heap.r.BaseVPN + uint64(touched[next-1]), true
	}, c.budget, uint64(len(touched)), 1))
	pm := newPerm(c.rng, uint64(len(touched)))
	z := newZipf(c.rng, 1.25, uint64(len(touched)))
	innerStep := smallStepper(c, inner)
	return c.steady(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 350:
			// Internal-node traversal: small, very hot regions.
			vpn, _ := innerStep()
			return vpn, false
		default:
			leaf := touched[pm.at(z.next())]
			return heap.r.BaseVPN + uint64(leaf), c.pick(1, 20)
		}
	})
}

// buildBwaves models 603.bwaves (§6.2.6): long-lived solver arrays plus
// a steady churn of short-lived 2MB allocations. Systems that keep
// allocation head-room in the fast tier (Tiering-0.8, TPP, MEMTIS)
// serve the churn from DRAM; AutoTiering reserves free space only for
// promotions and AutoNUMA cannot demote at all, so their churn lands on
// the capacity tier.
func buildBwaves(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	long := c.reserve(c.spec.RSSBytes() * 70 / 100)
	c.touchSmall(small)
	c.touchAll(long)
	zl := newBlockZipf(c.rng, 1.30, long)
	var cursor uint64
	// Short-lived allocation state machine.
	var cur vm.Region
	var curIdx uint64
	var phaseWrite, freePending bool
	// short marks a drawn short-buffer access whose free and reserve
	// could not be applied yet: accesses written earlier in the batch
	// must reach the machine first.
	var short bool
	const shortPages = tier.SubPages // 2MB short-lived buffers
	// The budget is checked before every step, as a step may free and
	// reserve before its access.
	return streamFunc(func(dst []sim.Op, done uint64) int {
		n := 0
		for n < len(dst) {
			if !short {
				if done+uint64(n) >= c.budget {
					break
				}
				if c.pick(45, 100) {
					if c.pick(1, 2) {
						cursor++
						dst[n] = sim.Op{VPN: long.vpnAt(cursor)}
					} else {
						vpn := zl.next()
						dst[n] = sim.Op{VPN: vpn, Write: c.pick(1, 4)}
					}
					n++
					continue
				}
				short = true
			}
			// Short-lived buffer protocol: write it fully, read it back,
			// free it, allocate the next. The free is deferred to the step
			// after the last read so the last access still hits a mapping.
			if (freePending || cur.Pages == 0) && n > 0 {
				break
			}
			if freePending {
				c.m.FreeRegion(cur)
				cur = vm.Region{}
				freePending = false
			}
			if cur.Pages == 0 {
				cur = c.m.Reserve(shortPages * tier.BasePageSize)
				curIdx, phaseWrite = 0, true
			}
			dst[n] = sim.Op{VPN: cur.BaseVPN + curIdx, Write: phaseWrite}
			n++
			short = false
			curIdx++
			if curIdx >= cur.Pages {
				curIdx = 0
				if phaseWrite {
					phaseWrite = false
				} else {
					freePending = true
				}
			}
		}
		return n
	})
}

// buildRoms models 654.roms (§6.2.6): a moderately skewed working set
// (block-scattered) dominates, with periodic time-step sweeps over the
// full arrays. Its high access rate is what drives ksampled's period
// upward (§6.3.5); splitting helps its hit ratio only slightly
// (Figure 12) because the skew lives at block, not subpage, level.
func buildRoms(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	arrays := c.reserve(c.spec.RSSBytes() - c.spec.SmallBytes())
	c.touchSmall(small)
	c.touchAll(arrays)
	work := region{r: vm.Region{BaseVPN: arrays.r.BaseVPN, Pages: arrays.pages * 45 / 100}, pages: arrays.pages * 45 / 100}
	zw := newBlockZipf(c.rng, 1.40, work)
	var cursor uint64
	smallStep := smallStepper(c, small)
	return c.steady(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 260:
			cursor++
			return arrays.vpnAt(cursor), c.pick(1, 3)
		case r < 985:
			return zw.next(), false
		default:
			return smallStep()
		}
	})
}
