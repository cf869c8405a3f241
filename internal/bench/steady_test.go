package bench

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"memtis/internal/obs"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/workload"
)

// TestSteadyRunAheadInvisible: whether the steady phases draw ahead
// (GOMAXPROCS 2 with one Drive loop, so a CPU is idle) or inline
// (GOMAXPROCS 1) changes no simulated byte. A RunOne silo/memtis cell
// and a tenant mix of Table 2 models stopped at the global budget give
// equal results and byte-equal event traces. Both are long enough that
// their steady phases pass the run-ahead threshold. The tenants'
// streams are abandoned at the global budget with fills in flight;
// every fill goroutine must still exit.
func TestSteadyRunAheadInvisible(t *testing.T) {
	type out struct {
		res   sim.Result
		trace []byte
	}
	traced := func(run func(tr *obs.Tracer) sim.Result) out {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		res := run(obs.NewTracer(sink))
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return out{res, buf.Bytes()}
	}
	cells := map[string]func() out{
		"silo": func() out {
			return traced(func(tr *obs.Tracer) sim.Result {
				cfg := DefaultConfig()
				cfg.Accesses = 600_000
				cfg.Trace = tr
				return RunOne("silo", "memtis", Ratio1to8, cfg)
			})
		},
		"tenants": func() out {
			return traced(func(tr *obs.Tracer) sim.Result {
				var specs []tenant.Spec
				var rss uint64
				for _, name := range []string{"silo", "graph500", "xsbench", "654.roms"} {
					w, err := workload.NewScaled(name, 1.5)
					if err != nil {
						t.Fatal(err)
					}
					specs = append(specs, tenant.Spec{Name: name, Workload: w})
					rss += w.Spec().RSSBytes()
				}
				specs[1].GrowBytes, specs[1].GrowFrac = 1<<20, 0.3
				tn, err := tenant.New(tenant.Config{Tenants: specs})
				if err != nil {
					t.Fatal(err)
				}
				mc := tenantMachine(rss+1<<20, Ratio1to8, 9, 0)
				mc.Trace = tr
				m := sim.NewMachine(mc, NewPolicy("memtis"))
				tn.Run(m, 800_000)
				return m.Finish(tn.Name())
			})
		},
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for name, cell := range cells {
		runtime.GOMAXPROCS(1)
		inline := cell()
		runtime.GOMAXPROCS(max(procs, 2))
		goroutines := runtime.NumGoroutine()
		ahead := cell()
		if !reflect.DeepEqual(inline.res, ahead.res) {
			t.Errorf("%s: result differs with run-ahead:\ninline %+v\nahead  %+v", name, inline.res, ahead.res)
		}
		if !bytes.Equal(inline.trace, ahead.trace) {
			t.Errorf("%s: event trace differs with run-ahead (%d bytes inline, %d ahead)", name, len(inline.trace), len(ahead.trace))
		}
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines 10s after the run, %d before it", name, runtime.NumGoroutine(), goroutines)
			}
		}
	}
}
