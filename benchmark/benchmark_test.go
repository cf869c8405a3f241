package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"memtis/internal/bench"
	"memtis/internal/workload"
)

// The hook wrapper must not change what a policy simulates, and must
// keep MEMTIS's FastSampled bypass: with it, OnAccess sees only the
// accesses that fault or that the sampler takes.
func TestWrapperTransparent(t *testing.T) {
	w := workload.MustNew("654.roms")
	cfg := harness(7, 100_000)
	for _, p := range bench.AllPolicies {
		c := cell{
			label:  p,
			load:   w,
			config: bench.MachineFor(w.Spec(), bench.Ratio1to8, p, cfg),
			budget: cfg.Accesses,
			policy: named(p),
		}
		bare, traced := runCell(c, false), runCell(c, true)
		if !reflect.DeepEqual(bare.res, traced.res) {
			t.Errorf("%s: wrapped result differs from the bare policy's", p)
		}
		if traced.hooks.accesses != cfg.Accesses {
			t.Errorf("%s: wrapper saw %d accesses, want %d", p, traced.hooks.accesses, cfg.Accesses)
		}
		if share := traced.hooks.onAccessShare(); p == "memtis" && share >= 1 {
			t.Errorf("memtis: OnAccess share %v through the wrapper, want < 1 (FastSampled bypass lost)", share)
		}
	}
}

// Replaying a captured stream on a space prepared by Run(m, 0) must
// simulate exactly the direct run. 603.bwaves is excluded: its stepper
// reserves and frees buffers between accesses, and the capture records
// accesses only.
func TestReplayFidelity(t *testing.T) {
	cfg := harness(11, 150_000)
	for _, s := range workload.Specs() {
		if s.Name == "603.bwaves" {
			continue
		}
		w := workload.MustNew(s.Name)
		c := cell{label: s.Name, load: w, stream: w, config: bench.MachineFor(s, bench.Ratio1to8, "memtis", cfg), budget: cfg.Accesses}
		r := replay(c)
		if r.fidelity != nil {
			t.Error(r.fidelity)
		}
		if r.n != cfg.Accesses {
			t.Errorf("%s: captured %d accesses, want %d", s.Name, r.n, cfg.Accesses)
		}
	}
}

// Every workload at 1/100 scale prints every metric BENCHMARK.json
// names exactly once, finite and with its unit, and its JSON result
// lines carry exactly the end-to-end or the per-layer set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		j := job{workload: sw.Name, seed: 42, scale: 0.01, trace: true, workers: workers}
		rep := smoke(t, j)
		var out bytes.Buffer
		if err := rep.write(&out, j); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		seen := map[string][]string{}
		for _, l := range lines {
			f := strings.Fields(l)
			seen[f[0]] = append(seen[f[0]], l)
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			got := seen[m.Name]
			if len(got) != 1 {
				t.Errorf("%s: %s printed %d times", sw.Name, m.Name, len(got))
				continue
			}
			f := strings.Fields(got[0])
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || len(f) != 3 || f[2] != m.Unit {
				t.Errorf("%s: bad metric line %q, want a finite value in %s", sw.Name, got[0], m.Unit)
			}
		}
		if len(seen["sim_digest"]) != 1 {
			t.Errorf("%s: sim_digest printed %d times", sw.Name, len(seen["sim_digest"]))
		}
		checkJSON(t, sw.Name, lines[len(lines)-1], spec.PerLayer)
		out.Reset()
		j.trace = false
		if err := rep.write(&out, j); err != nil {
			t.Fatal(err)
		}
		lines = strings.Split(strings.TrimSpace(out.String()), "\n")
		checkJSON(t, sw.Name, lines[len(lines)-1], spec.EndToEnd)
	}
}

// The seed changes what is simulated; the worker count does not.
func TestDigest(t *testing.T) {
	base := job{workload: "tenants", seed: 42, scale: 0.01, workers: workers}
	want := smoke(t, base).digest
	one := base
	one.workers = 1
	if got := smoke(t, one).digest; got != want {
		t.Errorf("1 worker digest %016x, 2 workers %016x", got, want)
	}
	other := base
	other.seed = 43
	if got := smoke(t, other).digest; got == want {
		t.Errorf("seeds 42 and 43 share digest %016x", got)
	}
}

func smoke(t *testing.T, j job) *report {
	t.Helper()
	rep, err := measure(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("%s: failed %d of %d cells: %v", j.workload, rep.failed, rep.attempted, rep.problems)
	}
	return rep
}

func checkJSON(t *testing.T, wl, line string, want []struct{ Name, Unit string }) {
	t.Helper()
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", wl, line, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
		t.Errorf("%s: result line %s", wl, line)
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: JSON metric %s = %+v, want unit %s", wl, m.Name, got, m.Unit)
		}
	}
}
