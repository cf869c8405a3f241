package main

import (
	"io"
	"testing"
)

func report(ns map[string]float64) *Report {
	rep := &Report{}
	for name, v := range ns {
		rep.Benchmarks = append(rep.Benchmarks, Bench{Name: name, NsPerOp: v})
	}
	return rep
}

func TestRatioFlagParses(t *testing.T) {
	var g ratioGates
	for _, spec := range []string{"A B 1.3", " C  D\t2 "} {
		if err := g.Set(spec); err != nil {
			t.Fatalf("Set(%q): %v", spec, err)
		}
	}
	want := ratioGates{{"A", "B", 1.3}, {"C", "D", 2}}
	if len(g) != len(want) || g[0] != want[0] || g[1] != want[1] {
		t.Fatalf("repeated -ratio parsed to %v, want %v", g, want)
	}
	for _, bad := range []string{"", "A B", "A B C D", "A B x", "A B 0", "A B -1"} {
		if err := g.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted a malformed spec", bad)
		}
	}
}

// The ratio gates run whether or not a baseline snapshot exists, and
// every repeated gate counts.
func TestGateChecksRatiosWithoutBaseline(t *testing.T) {
	rep := report(map[string]float64{"A": 10, "B": 20, "C": 30})
	cases := []struct {
		ratios ratioGates
		want   int
	}{
		{nil, 0},
		{ratioGates{{"A", "B", 0.5}, {"C", "B", 1.5}}, 0},
		{ratioGates{{"A", "B", 0.0001}}, 1},
		{ratioGates{{"A", "B", 0.5}, {"C", "B", 1.4}}, 1},
		{ratioGates{{"A", "missing", 1}}, 2},
	}
	for _, c := range cases {
		if got := gate(io.Discard, rep, "", 0, c.ratios); got != c.want {
			t.Errorf("gate(%v) with no baseline = %d, want %d", c.ratios, got, c.want)
		}
	}
}
