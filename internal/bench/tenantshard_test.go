// Determinism and merge tests for tenant-sharded runs (DESIGN.md §13):
// the parallel lanes must be byte-identical to the Sequential reference
// at every shard count, and per-tenant rows must merge to global ids.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	memtis "memtis/internal/core"
	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
)

// tenantShardPolicy is the dense fixed-period MEMTIS instance the
// VPN-shard determinism suite uses: at the compressed test scale the
// self-adjusting sampler is too sparse to classify hot sets inside one
// shard's slice of the stream, leaving the migration paths untested.
func tenantShardPolicy() sim.Policy {
	smp := pebs.DefaultConfig()
	smp.LoadPeriod, smp.MinPeriod, smp.MaxPeriod = 8, 8, 8
	return memtis.New(memtis.Config{Sampler: smp, CoolEvery: 12_000})
}

// tenantShardMix is the shared plan: 16 tenants with an 8:1 weight
// skew, half churning (spawn 10% / exit 70%), one grow/shrink plan and
// a QoS floor on tenant 0, so the sharded driver's whole control
// surface — weighted pick, churn, reservations, exit frees, floor
// checks — is exercised. Sixteen tenants keeps each shard's hot-block
// count above its fast-block count at the test shard sizes, so every
// shard hosting tenants sees real promotion pressure.
func tenantShardMix() (tenant.Config, uint64) {
	tc, rss := TenantMix(TenantPoint{Tenants: 16, Skew: "8to1", ChurnFrac: 0.5}, 4<<20)
	tc.Tenants[0].FloorBytes = 1 << 20
	tc.Tenants[15].GrowBytes = 2 << 20
	tc.Tenants[15].GrowFrac = 0.3
	tc.Tenants[15].ShrinkFrac = 0.8
	return tc, rss
}

// runTenantShardStream executes the shared plan on an S-shard machine
// and returns the per-shard JSONL traces plus the run result. The
// budget scales with the shard count (as in the VPN-shard suite) so
// each shard's slice of the stream stays thick enough for its dense
// sampler to classify hot sets and drive migrations.
func runTenantShardStream(t *testing.T, shards int, sequential bool) ([][]byte, *tenant.ShardedResult) {
	t.Helper()
	tc, rss := tenantShardMix()
	tn, err := tenant.New(tc)
	if err != nil {
		t.Fatal(err)
	}
	fast := rss / 4
	bufs := make([]*bytes.Buffer, shards)
	sinks := make([]*obs.JSONL, shards)
	sr, err := tn.RunSharded(tenant.ShardedConfig{
		Shards:     shards,
		Sequential: sequential,
		Machine: sim.Config{
			FastBytes: fast,
			CapBytes:  rss + rss/4 + 16*tier.HugePageSize,
			CapKind:   tier.NVM,
			THP:       true,
			Seed:      7,
		},
		PolicyFor: func(int) sim.Policy { return tenantShardPolicy() },
		TraceFor: func(i int) *obs.Tracer {
			bufs[i] = &bytes.Buffer{}
			sinks[i] = obs.NewJSONL(bufs[i])
			return obs.NewTracer(sinks[i])
		},
	}, 200_000*uint64(shards))
	if err != nil {
		t.Fatal(err)
	}
	traces := make([][]byte, shards)
	for i, b := range bufs {
		if err := sinks[i].Flush(); err != nil {
			t.Fatal(err)
		}
		traces[i] = b.Bytes()
	}
	return traces, sr
}

// TestShardedTenantsSeqParallelIdentical is the tenant-sharding
// determinism gate (run under -race in CI): for 1, 2 and 8 shards the
// parallel lanes produce byte-identical per-shard event traces,
// results, tenant rows and merged arbiter state to the Sequential
// reference mode.
func TestShardedTenantsSeqParallelIdentical(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seqTr, seqRes := runTenantShardStream(t, shards, true)
			parTr, parRes := runTenantShardStream(t, shards, false)
			var events int
			for i := 0; i < shards; i++ {
				if !bytes.Equal(seqTr[i], parTr[i]) {
					t.Errorf("shard %d: parallel trace differs from sequential (%d vs %d bytes)",
						i, len(parTr[i]), len(seqTr[i]))
				}
				if len(seqTr[i]) == 0 {
					t.Errorf("shard %d: empty trace — no tenant ops reached it", i)
				}
				if !reflect.DeepEqual(seqRes.Shards[i], parRes.Shards[i]) {
					t.Errorf("shard %d: parallel result differs from sequential:\nseq %+v\npar %+v",
						i, seqRes.Shards[i], parRes.Shards[i])
				}
				events += bytes.Count(seqTr[i], []byte("\n"))
			}
			if events == 0 {
				t.Fatal("no events traced")
			}
			if !reflect.DeepEqual(seqRes.Aggregate, parRes.Aggregate) {
				t.Errorf("aggregate differs:\nseq %+v\npar %+v", seqRes.Aggregate, parRes.Aggregate)
			}
			if !reflect.DeepEqual(seqRes.Arbiter, parRes.Arbiter) {
				t.Errorf("merged arbiter state differs:\nseq %+v\npar %+v", seqRes.Arbiter, parRes.Arbiter)
			}
		})
	}
}

// TestTenantShardedAggregateRows pins the row merge: every tenant
// appears exactly once in the aggregate under its global id and name,
// the per-tenant accesses sum to the budget, and the per-switch
// simulated-TLB cold start plus migration machinery actually ran on
// every shard hosting tenants.
func TestTenantShardedAggregateRows(t *testing.T) {
	const shards = 4
	_, sr := runTenantShardStream(t, shards, false)
	if len(sr.Aggregate.Tenants) != 16 {
		t.Fatalf("aggregate has %d tenant rows, want 16", len(sr.Aggregate.Tenants))
	}
	const budget = 200_000 * shards
	var total uint64
	for g, row := range sr.Aggregate.Tenants {
		if row.ID != g {
			t.Errorf("row %d: global id %d out of order", g, row.ID)
		}
		if want := fmt.Sprintf("t%03d", g); row.Name != want {
			t.Errorf("row %d: name %q, want %q", g, row.Name, want)
		}
		// Churners (tenants 1-8 under ChurnFrac 0.5) are alive for only
		// part of the run and may lose every weighted draw at an
		// unlucky seed, so only the always-alive tenants are required
		// to have issued accesses.
		if row.Accesses == 0 && (g == 0 || g > 8) {
			t.Errorf("tenant %d issued no accesses", g)
		}
		total += row.Accesses
	}
	if total != budget {
		t.Errorf("per-tenant accesses sum to %d, want the %d budget", total, budget)
	}
	if sr.Aggregate.Accesses != budget {
		t.Errorf("aggregate accesses %d, want %d", sr.Aggregate.Accesses, budget)
	}
	var migrated uint64
	for i, r := range sr.Shards {
		migrated += r.VM.Promotions
		if r.Accesses == 0 {
			t.Errorf("shard %d saw no accesses", i)
		}
	}
	if migrated == 0 {
		t.Error("no promotions anywhere — the mix exerts no tiering pressure")
	}
	if len(sr.Arbiter.Contended) != 16 {
		t.Errorf("merged arbiter tracks %d tenants, want 16", len(sr.Arbiter.Contended))
	}
}

// TestTenantSweepSharded pins the sweep composition: with cfg.Shards
// set every cell (reference included) runs on the sharded machine and
// records a full-budget aggregate, and the EventDir conflict is
// rejected up front rather than mid-sweep.
func TestTenantSweepSharded(t *testing.T) {
	r := Parallel(2)
	cfg := DefaultConfig()
	cfg.Accesses = 200_000
	cfg.Shards = 2
	points := []TenantPoint{
		{Tenants: 1, Skew: "flat"},
		{Tenants: 8, Skew: "8to1", ChurnFrac: 0.5},
	}
	m, err := r.TenantSweep(context.Background(), cfg, Ratio1to8, []string{"memtis"}, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("sweep produced %d cells, want 2", len(m.Cells))
	}
	for _, c := range m.Cells {
		if c.Result.Accesses != cfg.Accesses {
			t.Errorf("cell %s/%s: aggregate accesses %d, want %d", c.Ratio, c.Policy, c.Result.Accesses, cfg.Accesses)
		}
		if c.Value <= 0 {
			t.Errorf("cell %s/%s: non-positive normalised value %v", c.Ratio, c.Policy, c.Value)
		}
	}
	cfg.EventDir = t.TempDir()
	if _, err := r.TenantSweep(context.Background(), cfg, Ratio1to8, []string{"memtis"}, points); err == nil {
		t.Fatal("TenantSweep accepted Shards with EventDir")
	}
}
