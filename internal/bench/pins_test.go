package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"memtis/internal/obs"
	"memtis/internal/sim"
	"memtis/internal/workload"
)

// The four golden suites (TestDriveEquivalence,
// TestPageStoreEquivalence, TestTenantSchedulerEquivalence and
// TestSingleTenantGolden) pin what their cells simulate in one
// manifest, testdata/pins.txt: one line per cell, sorted by name, e.g.
//
//	drive/hunt/10 trace=82fd… result=3fa4… accesses=100000 app_ns=17162779
//
// trace is the sha256 of the cell's JSONL event stream and result the
// sha256 of its sim.Result as %+v renders it, the rendering the
// benchmark hashes into sim_digest, so every counter, tenant row, VM
// and TLB stat, series point and the daemon-inflated wall time are
// pinned. A change meant to move simulated bytes rewrites every pin
// with `make repin`, which runs the suites under PINS_REWRITE=1; any
// other change must never need it.

// pinsFile is the manifest every golden suite reads and rewrites.
var pinsFile = filepath.Join("testdata", "pins.txt")

// pinSuites are the manifest's name prefixes, one per golden suite.
var pinSuites = []string{"drive", "store", "tenant", "single"}

// pin is one cell's manifest entry.
type pin struct {
	Trace    string // sha256 of the JSONL event stream
	Result   string // sha256 of fmt's %+v rendering of the sim.Result
	Accesses uint64
	AppNS    uint64
}

func (p pin) String() string {
	return fmt.Sprintf("trace=%s result=%s accesses=%d app_ns=%d", p.Trace, p.Result, p.Accesses, p.AppNS)
}

// runPin runs w for n accesses on a fresh machine built from mc, with
// an event tracer attached, and returns the run's pin and result.
func runPin(mc sim.Config, pol sim.Policy, w sim.Workload, n uint64) (pin, sim.Result) {
	th := sha256.New()
	sink := obs.NewJSONL(th)
	mc.Trace = obs.NewTracer(sink)
	res := sim.Run(mc, pol, w, n)
	if err := sink.Flush(); err != nil {
		panic(err)
	}
	rh := sha256.New()
	fmt.Fprintf(rh, "%+v", res)
	return pin{
		Trace:    hex.EncodeToString(th.Sum(nil)),
		Result:   hex.EncodeToString(rh.Sum(nil)),
		Accesses: res.Accesses,
		AppNS:    res.AppNS,
	}, res
}

// manifest is a parsed pins file: every cell's pin, keyed by its full
// name, "suite/cell".
type manifest map[string]pin

// parseManifest reads a pins file. A line that is not in the canonical
// form bytes writes, repeats or breaks the sort order, or falls under a
// prefix no suite owns is an error.
func parseManifest(data []byte) (manifest, error) {
	m := manifest{}
	prev := ""
	for i, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			break // after the final newline
		}
		var name string
		var p pin
		_, err := fmt.Sscanf(line, "%s trace=%s result=%s accesses=%d app_ns=%d\n",
			&name, &p.Trace, &p.Result, &p.Accesses, &p.AppNS)
		suite, _, _ := strings.Cut(name, "/")
		var why string
		switch _, dup := m[name]; {
		case err != nil || line != name+" "+p.String()+"\n":
			why = "malformed line"
		case !slices.Contains(pinSuites, suite) || suite == name:
			why = fmt.Sprintf("cell %s is under no suite's prefix %q", name, pinSuites)
		case dup:
			why = "duplicate cell " + name
		case name < prev:
			why = fmt.Sprintf("cell %s sorts before %s", name, prev)
		}
		if why != "" {
			return nil, fmt.Errorf("%s:%d: %s; rewrite it with `make repin`", pinsFile, i+1, why)
		}
		m[name], prev = p, name
	}
	return m, nil
}

// bytes renders m as a pins file, one line per cell sorted by name.
func (m manifest) bytes() []byte {
	var b bytes.Buffer
	for _, name := range sortedNames(m) {
		fmt.Fprintf(&b, "%s %s\n", name, m[name])
	}
	return b.Bytes()
}

// check compares one suite's pins, keyed by cell, with the manifest's
// lines under the suite's prefix. The error names every pin that moved,
// every cell without a line and every line whose cell is gone.
func (m manifest) check(suite string, got map[string]pin) error {
	var bad []string
	for _, cell := range sortedNames(got) {
		name := suite + "/" + cell
		if want, ok := m[name]; !ok {
			bad = append(bad, name+": missing line")
		} else if want != got[cell] {
			bad = append(bad, fmt.Sprintf("%s moved:\n   got %s\n  want %s", name, got[cell], want))
		}
	}
	for _, name := range sortedNames(m) {
		if cell, ok := strings.CutPrefix(name, suite+"/"); ok {
			if _, live := got[cell]; !live {
				bad = append(bad, name+": stale line, the suite has no such cell")
			}
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%s:\n%s\nif the move is meant, rewrite every pin with `make repin`", pinsFile, strings.Join(bad, "\n"))
}

// replace swaps the manifest's lines under suite's prefix for got's.
func (m manifest) replace(suite string, got map[string]pin) {
	for name := range m {
		if strings.HasPrefix(name, suite+"/") {
			delete(m, name)
		}
	}
	for cell, p := range got {
		m[suite+"/"+cell] = p
	}
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// pinCell runs one golden cell.
type pinCell func() (pin, sim.Result)

// checkPins runs a golden suite's cells, keyed by name within the
// suite, and checks each pin against the manifest; under PINS_REWRITE
// it writes the suite's lines instead. It returns the cells' results
// in name order for the suite's coverage floors, which hold in both
// modes.
func checkPins(t *testing.T, suite string, cells map[string]pinCell) []sim.Result {
	t.Helper()
	rewrite := os.Getenv("PINS_REWRITE") != ""
	data, err := os.ReadFile(pinsFile)
	m, perr := parseManifest(data)
	if err == nil {
		err = perr
	}
	if err != nil {
		if !rewrite {
			t.Fatal(err)
		}
		t.Logf("%v: starting a new manifest", err)
		m = manifest{}
	}
	got := make(map[string]pin, len(cells))
	var results []sim.Result
	for _, cell := range sortedNames(cells) {
		p, res := cells[cell]()
		got[cell] = p
		results = append(results, res)
	}
	if !rewrite {
		if err := m.check(suite, got); err != nil {
			t.Fatal(err)
		}
		return results
	}
	m.replace(suite, got)
	if err := os.WriteFile(pinsFile, m.bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d %s pins to %s", len(got), suite, pinsFile)
	return results
}

// TestSingleTenantGolden pins the multi-tenant compatibility path: the
// two single-tenant cells of a silo 1:8 RunMatrix, each on the machine
// the matrix builds for it, whose counters and result fields were first
// recorded from the seed tree before any tenant code landed. A move
// here means the tenant layer leaked into single-space runs (a new
// unconditional counter, a changed access stream, a tagged vpn
// reaching the TLB with a non-zero tag, ...).
func TestSingleTenantGolden(t *testing.T) {
	cells := map[string]pinCell{}
	for _, p := range []string{"memtis", "tpp"} {
		cells["silo/"+Ratio1to8.Name+"/"+p] = func() (pin, sim.Result) {
			w := workload.MustNew("silo")
			cfg := CellConfig(DefaultConfig(), "silo", Ratio1to8.Name, p)
			return runPin(MachineFor(w.Spec(), Ratio1to8, p, cfg), NewPolicy(p), w, 200_000)
		}
	}
	checkPins(t, "single", cells)
}

// TestPinManifest checks the manifest code itself: a written manifest
// parses back to the same bytes, and every broken manifest, whether
// unparsable or out of step with its suite, is an error that names
// the command that rewrites it.
func TestPinManifest(t *testing.T) {
	h := func(c byte) string { return strings.Repeat(string(c), 64) }
	m := manifest{
		"drive/hunt/10":        {h('a'), h('b'), 100_000, 17_162_779},
		"drive/model/silo/tpp": {h('c'), h('d'), 300_000, 1},
		"single/silo/1:8/tpp":  {h('e'), h('f'), 200_000, 46_311_538},
		"store/churn_seed42":   {h('0'), h('1'), 400_000, 62_492_827},
		"tenant/hammer_seed42": {h('2'), h('3'), 150_000, 20_266_058},
	}
	data := m.bytes()
	back, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.bytes(); !bytes.Equal(got, data) {
		t.Fatalf("round trip changed the manifest:\n%s\nwant\n%s", got, data)
	}
	if empty, err := parseManifest(nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty manifest: %v, %v", empty, err)
	}

	lines := strings.SplitAfter(string(data), "\n")
	line := lines[0]
	for name, bad := range map[string]string{
		"duplicate":     line + string(data),
		"unsorted":      lines[1] + line,
		"unknown suite": "figs/fig5 " + m["drive/hunt/10"].String() + "\n",
		"malformed":     strings.Replace(line, " result=", "  result=", 1),
	} {
		if _, err := parseManifest([]byte(bad)); err == nil || !strings.Contains(err.Error(), "make repin") {
			t.Errorf("%s: parse error %v, want one naming make repin", name, err)
		}
	}

	drive := map[string]pin{"hunt/10": m["drive/hunt/10"], "model/silo/tpp": m["drive/model/silo/tpp"]}
	if err := m.check("drive", drive); err != nil {
		t.Fatalf("check of the manifest's own pins: %v", err)
	}
	moved := m["drive/hunt/10"]
	moved.AppNS++
	for name, got := range map[string]map[string]pin{
		"moved":   {"hunt/10": moved, "model/silo/tpp": m["drive/model/silo/tpp"]},
		"stale":   {"hunt/10": m["drive/hunt/10"]},
		"missing": {"hunt/10": m["drive/hunt/10"], "model/silo/tpp": m["drive/model/silo/tpp"], "hunt/2": moved},
	} {
		err := m.check("drive", got)
		if err == nil || !strings.Contains(err.Error(), "make repin") {
			t.Errorf("%s: check error %v, want one naming make repin", name, err)
		}
	}

	m.replace("drive", map[string]pin{"hunt/2": moved})
	if err := m.check("drive", map[string]pin{"hunt/2": moved}); err != nil {
		t.Errorf("after replace: %v", err)
	}
	if _, ok := m["single/silo/1:8/tpp"]; !ok || len(m) != 4 {
		t.Errorf("replace touched another suite's lines: %v", sortedNames(m))
	}
}
