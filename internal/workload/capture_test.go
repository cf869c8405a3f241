package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memtis/internal/sim"
)

// TestCaptureLogsChurn: 603.bwaves' capture logs its short buffers'
// frees and re-reservations at their stream positions, and a replay on
// a fresh machine ends in the state the generated stream leaves.
func TestCaptureLogsChurn(t *testing.T) {
	const n = 200_000
	w := MustNew("603.bwaves")
	cfg := machineFor(w.Spec(), 3).Cfg
	c := w.Capture(cfg, n)
	var frees, reserves int
	for _, e := range c.events {
		if e.free {
			frees++
		} else if e.at > 0 {
			reserves++
		}
	}
	if frees < 10 || reserves < 10 {
		t.Fatalf("capture logged %d frees and %d mid-stream reservations, want several", frees, reserves)
	}
	if got, want := sim.Run(cfg, nil, c, n), sim.Run(cfg, nil, w, n); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay differs from the generated stream:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayChecksLayout: a replay onto a space laid out otherwise than
// its capture's (one region reserved first) panics, naming the key.
func TestReplayChecksLayout(t *testing.T) {
	const n = 10_000
	w := MustNew("silo")
	m := machineFor(w.Spec(), 3)
	c := w.Capture(m.Cfg, n)
	m.Reserve(1 << 20)
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		c.Stream(m, n)
		return ""
	}()
	if key := fmt.Sprintf("%+v", w.Key(m.Cfg, n)); !strings.Contains(msg, key) {
		t.Fatalf("replay on another layout: panic %q, want one naming %s", msg, key)
	}
}
