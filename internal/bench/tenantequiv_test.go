package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	memtis "memtis/internal/core"
	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tenant"
)

// The tenant scheduler equivalence suite pins the scheduler (DESIGN.md
// §10): the golden hashes in testdata/tenant_equiv.json were recorded
// from the historical goroutine-per-tenant scheduler, and every later
// scheduler must reproduce them bit for bit — same event traces
// (tenant_spawn/switch/exit, promotions, faults), same counters, same
// per-tenant result rows, same virtual clock — across tenant counts,
// churn plans, floors, fault injection, and a zipfHammer neighbour whose
// budget is checked before every access rather than once per batch.
//
// Regenerate with TENANT_EQUIV_REWRITE=1 only when a change is *meant*
// to alter simulated multi-tenant behaviour; a scheduler-machinery
// change must never need it.

// tenantEquivCell is one golden entry.
type tenantEquivCell struct {
	TraceSHA    string `json:"trace_sha"`
	CountersSHA string `json:"counters_sha"`
	TenantsSHA  string `json:"tenants_sha"`
	Accesses    uint64 `json:"accesses"`
	AppNS       uint64 `json:"app_ns"`
	Migrations  uint64 `json:"migrations_4k"`
	RSSFinal    uint64 `json:"rss_final"`
}

// tenantEquivSpecs builds the cell's tenant mix: a floored, weighted
// immortal first tenant plus churning neighbours covering spawn, grow,
// shrink and exit, over TenantLoad streams. When hammer is set, the
// second tenant runs zipfHammer instead, a stream checking its budget
// before every access.
func tenantEquivSpecs(n int, hammer bool) ([]tenant.Spec, uint64) {
	per := tenantSweepBytes(n)
	specs := make([]tenant.Spec, n)
	var rss uint64
	for i := range specs {
		name := fmt.Sprintf("t%03d", i)
		specs[i] = tenant.Spec{
			Name:     name,
			Weight:   1,
			Workload: NewTenantLoad(name, per),
		}
		rss += per
		switch {
		case i == 0:
			specs[i].Weight = 8
			specs[i].FloorBytes = 2 << 20
		case i == 1 && hammer:
			specs[i].Workload = zipfHammer{}
			specs[i].SpawnFrac = 0.2
			specs[i].ExitFrac = 0.8
			rss += 48 << 20
		case i%2 == 1:
			specs[i].SpawnFrac = 0.1
			specs[i].ExitFrac = 0.7
		case i%4 == 2:
			specs[i].GrowBytes = 1 << 20
			specs[i].GrowFrac = 0.3
			specs[i].ShrinkFrac = 0.6
		}
	}
	return specs, rss
}

// runTenantEquivCell executes one cell and returns its golden entry.
func runTenantEquivCell(n int, seed int64, faultPpm uint32, dense, hammer bool) tenantEquivCell {
	specs, rss := tenantEquivSpecs(n, hammer)
	tn, err := tenant.New(tenant.Config{Tenants: specs, Slice: 4096})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	mc := tenantMachine(rss, Ratio1to8, seed, faultPpm)
	mc.Trace = obs.NewTracer(sink)
	smp := pebs.DefaultConfig()
	if dense {
		// Dense fixed-period sampling exercises the full OnAccess path
		// heavily; the default self-adjusting config leaves most
		// accesses to the sampler-bypass fast path. The suite pins both.
		smp.LoadPeriod, smp.MinPeriod, smp.MaxPeriod = 8, 8, 8
	}
	pol := memtis.New(memtis.Config{Sampler: smp})
	m := sim.NewMachine(mc, pol)
	tn.Run(m, 150_000)
	res := m.Finish(tn.Name())
	if err := sink.Flush(); err != nil {
		panic(err)
	}
	ts := sha256.Sum256(buf.Bytes())
	var cb bytes.Buffer
	for _, c := range res.Counters {
		fmt.Fprintf(&cb, "%s=%d\n", c.Name, c.Value)
	}
	cs := sha256.Sum256(cb.Bytes())
	var rb bytes.Buffer
	for _, row := range res.Tenants {
		fmt.Fprintf(&rb, "%d %s %d %d %d\n", row.ID, row.Name, row.Accesses, row.ResidentBytes, row.FastBytes)
	}
	rs := sha256.Sum256(rb.Bytes())
	return tenantEquivCell{
		TraceSHA:    hex.EncodeToString(ts[:]),
		CountersSHA: hex.EncodeToString(cs[:]),
		TenantsSHA:  hex.EncodeToString(rs[:]),
		Accesses:    res.Accesses,
		AppNS:       res.AppNS,
		Migrations:  res.VM.Migrations4K,
		RSSFinal:    res.RSSFinal,
	}
}

// tenantEquivCells enumerates the golden cells: the single-tenant
// single-space path, churning 4- and 64-tenant mixes over two seeds,
// a dense-sampler cell, a fault-injected cell, and the zipfHammer cell.
func tenantEquivCells() map[string]func() tenantEquivCell {
	return map[string]func() tenantEquivCell{
		"n1_seed42":        func() tenantEquivCell { return runTenantEquivCell(1, 42, 0, false, false) },
		"n4_seed42":        func() tenantEquivCell { return runTenantEquivCell(4, 42, 0, false, false) },
		"n4_seed43":        func() tenantEquivCell { return runTenantEquivCell(4, 43, 0, false, false) },
		"n4_dense_seed42":  func() tenantEquivCell { return runTenantEquivCell(4, 42, 0, true, false) },
		"n4_faults_seed42": func() tenantEquivCell { return runTenantEquivCell(4, 42, 50_000, false, false) },
		"n64_seed42":       func() tenantEquivCell { return runTenantEquivCell(64, 42, 0, false, false) },
		"hammer_seed42":    func() tenantEquivCell { return runTenantEquivCell(3, 42, 0, false, true) },
	}
}

// TestTenantSchedulerEquivalence drives the equivalence cells and
// compares against the recorded goldens.
func TestTenantSchedulerEquivalence(t *testing.T) {
	path := filepath.Join("testdata", "tenant_equiv.json")
	cells := tenantEquivCells()
	if os.Getenv("TENANT_EQUIV_REWRITE") != "" {
		out := map[string]tenantEquivCell{}
		for name, run := range cells {
			out[name] = run()
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cells", path, len(out))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (%v); regenerate with TENANT_EQUIV_REWRITE=1", err)
	}
	want := map[string]tenantEquivCell{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cells) {
		t.Fatalf("golden has %d cells, suite has %d", len(want), len(cells))
	}
	var totMigs uint64
	for name, run := range cells {
		got := run()
		w, ok := want[name]
		if !ok {
			t.Fatalf("cell %s missing from golden", name)
		}
		if got != w {
			t.Errorf("cell %s diverged from the scheduler golden:\n got %+v\nwant %+v", name, got, w)
		}
		totMigs += got.Migrations
	}
	if totMigs == 0 {
		t.Fatal("suite lost coverage: no cell migrated a page")
	}
}
