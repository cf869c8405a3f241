package main

import (
	"path/filepath"
	"testing"

	"memtis/internal/scenario"
)

// examples globs the shipped example files matching pattern, failing
// when there are none (a moved directory must not pass vacuously).
func examples(t *testing.T, pattern string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", pattern))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples match %s (err %v)", pattern, err)
	}
	return paths
}

// TestExampleTopologiesLoad: every shipped topology file parses through
// the -topology loader and builds its tier chain.
func TestExampleTopologiesLoad(t *testing.T) {
	for _, path := range examples(t, "topologies/*.topology") {
		topo, err := loadTopology(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := topo.Build(); err != nil {
			t.Errorf("%s: build: %v", path, err)
		}
	}
}

// TestExampleScenariosCompile: every shipped scenario spec decodes and
// compiles as -scenario would load it.
func TestExampleScenariosCompile(t *testing.T) {
	for _, path := range examples(t, "scenarios/*.json") {
		spec, err := scenario.DecodeFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := scenario.Compile(spec, scenario.Options{Dir: filepath.Dir(path)}); err != nil {
			t.Errorf("%s: compile: %v", path, err)
		}
	}
}
