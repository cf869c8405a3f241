package bench

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"memtis/internal/workload"
)

// TestReplayMatchesGenerated: a cell that replays its fan-out's capture
// of a Table 2 stream runs exactly the cell that generates the stream,
// for every model under three policies: the same sim.Result and the
// same event trace. One capture serves a model's three policies.
func TestReplayMatchesGenerated(t *testing.T) {
	const n = 200_000 // 603.bwaves frees and re-reserves ~100 buffers
	for _, s := range workload.Specs() {
		fanout := &streams{byKey: map[workload.StreamKey]*capture{}}
		for _, p := range []string{"memtis", "hemem", "tpp"} {
			w := workload.MustNew(s.Name)
			mc := MachineFor(s, Ratio1to8, p, CellConfig(DefaultConfig(), s.Name, Ratio1to8.Name, p))
			load := fanout.load(w, mc, n)
			if _, ok := load.(*workload.Capture); !ok {
				t.Fatalf("%s/%s: the fan-out ran %T, not a capture", s.Name, p, load)
			}
			want, wantRes := runPin(mc, NewPolicy(p), w, n)
			got, gotRes := runPin(mc, NewPolicy(p), load, n)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("%s/%s: replayed result differs:\n got %+v\nwant %+v", s.Name, p, gotRes, wantRes)
			}
			if got != want {
				t.Errorf("%s/%s: replayed pin %s, generated %s", s.Name, p, got, want)
			}
		}
		if len(fanout.byKey) != 1 {
			t.Errorf("%s: %d keys for one stream", s.Name, len(fanout.byKey))
		}
	}
}

// TestFig5CapturesEachStreamOnce: a Fig 5 over two models, one ratio
// and two policies captures each model's stream once, sequentially and
// on four workers, keyed on the stream seed CellConfig derives. CI runs
// it under -race (make race).
func TestFig5CapturesEachStreamOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Accesses = 50_000
	models := []string{"silo", "btree"}
	for _, r := range []*Runner{Sequential(), Parallel(4)} {
		var mu sync.Mutex
		seen := map[workload.StreamKey]int{}
		r.captured = func(k workload.StreamKey) {
			mu.Lock()
			seen[k]++
			mu.Unlock()
		}
		if _, _, err := r.Fig5(context.Background(), cfg, models, []Ratio{Ratio1to8}, []string{"tpp", "memtis"}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(models) {
			t.Errorf("%d workers: captured %v, want one stream per model", r.Workers, seen)
		}
		for _, name := range models {
			w := workload.MustNew(name)
			k := w.Key(MachineFor(w.Spec(), Ratio1to8, "tpp", CellConfig(cfg, name, "1:8", "tpp")), cfg.Accesses)
			if k.Seed != streamSeed(cfg.Seed, name) || seen[k] != 1 {
				t.Errorf("%d workers: %+v captured %d times, want once on stream seed %d", r.Workers, k, seen[k], streamSeed(cfg.Seed, name))
			}
		}
	}
}
