package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCodeReferences lints a document holding one live and one stale
// reference into internal/: only the stale one is reported, with its
// file and line.
func TestCodeReferences(t *testing.T) {
	syms, err := packageSymbols(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(t.TempDir(), "doc.md")
	text := "`sim.Machine.AccessBatch`, `vm.Touch` and `obs.Ev*` exist.\n" +
		"`rand.New` and `trace.mtrc` are not references.\n" +
		"`sim.Machine.NoSuchMethod` does not exist.\n"
	if err := os.WriteFile(doc, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	msgs := lintMarkdownFile(doc, map[string]map[string]bool{}, syms)
	if len(msgs) != 1 || !strings.Contains(msgs[0], doc+":3:") || !strings.Contains(msgs[0], `"sim.Machine.NoSuchMethod"`) {
		t.Fatalf("got %q, want one stale reference at line 3", msgs)
	}
}
