// Touch serves every access TouchFast declines and every access of a
// policy without a bypass contract; these benchmarks pin the cost of
// its mapped case for both page kinds, read and write.
package vm

import "testing"

// benchAS returns an address space with one pre-faulted region and a
// probe sequence over it.
func benchAS(b *testing.B, thp bool) (*AddressSpace, []uint64) {
	b.Helper()
	as := newAS(nil, 64, 64, thp)
	r := as.Reserve(32 << 20)
	for vpn := r.BaseVPN; vpn < r.BaseVPN+r.Pages; vpn++ {
		as.Touch(vpn, false)
	}
	vpns := make([]uint64, 1<<12)
	for i := range vpns {
		vpns[i] = r.BaseVPN + (uint64(i)*2654435761)%r.Pages
	}
	return as, vpns
}

func benchTouch(b *testing.B, thp, write bool) {
	as, vpns := benchAS(b, thp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.Touch(vpns[i&(len(vpns)-1)], write)
	}
}

func BenchmarkTouchMappedHugeRead(b *testing.B)  { benchTouch(b, true, false) }
func BenchmarkTouchMappedHugeWrite(b *testing.B) { benchTouch(b, true, true) }
func BenchmarkTouchMappedBaseRead(b *testing.B)  { benchTouch(b, false, false) }

// BenchmarkForEachPageAllocs pins the steady-state allocation count of
// the full-table walk at zero: policies call ForEachPage from periodic
// ticks, and an O(nPages) snapshot allocation per call (the historical
// behaviour) turns every policy tick into a GC event on large spaces.
// The walk visits the live table in place and allocates nothing; the
// benchmark's allocs/op column (gated in CI) is the regression
// tripwire.
func BenchmarkForEachPageAllocs(b *testing.B) {
	as, _ := benchAS(b, false) // base pages: maximal page count per byte
	live := 0
	as.ForEachPage(func(p *Page) { live++ }) // first walk; steady state from here on
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		as.ForEachPage(func(p *Page) { n++ })
		if n != live {
			b.Fatalf("walk visited %d pages, want %d", n, live)
		}
	}
}

// BenchmarkAudit times one full Audit of a 32MB space, mapped with
// huge pages and with base pages. The conformance probes run Audit
// every few thousand simulated accesses, so its cost is a share of the
// scenario hunt's wall time; allocs/op stays flat in the page count.
func BenchmarkAudit(b *testing.B) {
	for _, thp := range []bool{true, false} {
		name := "base"
		if thp {
			name = "huge"
		}
		b.Run(name, func(b *testing.B) {
			as, _ := benchAS(b, thp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := as.Audit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
