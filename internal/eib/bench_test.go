package eib

import (
	"testing"
	"time"

	"cellbe/internal/ledger"
	"cellbe/internal/sim"
)

// BenchmarkEIBGrant measures the grant path per transfer: it replays the
// fixed pair/couples/cycle call stream of grantBenchStreams against a
// bare EIB — grant search, bookings and counters, with no engine and no
// completions — resetting it between points as arena carcasses do. Each
// iteration replays the whole stream once. The EIBGrant row of the
// repository's BENCH_eib.json records the iterations' ns/transfer
// (median, quartiles, min) and allocations per transfer. Record it with:
// go test -run xxx -bench 'EIBGrant$' -benchtime 40x ./internal/eib
func BenchmarkEIBGrant(b *testing.B) {
	streams := grantBenchStreams()
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	bus := New(sim.NewEngine(), DefaultConfig())
	replay := func() {
		for _, s := range streams {
			bus.Reset(DefaultConfig())
			for _, c := range s {
				bus.transfer(c.src, c.dst, c.bytes, c.earliest, c.now)
			}
		}
	}
	replay() // grow the bookings' backing arrays: steady state
	var samples []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		replay()
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	b.StopTimer()
	allocs := testing.AllocsPerRun(1, replay) / float64(n)
	row := ledger.Timed("ns/transfer", samples)
	b.ReportMetric(row["ns/transfer median"].(float64), "ns/transfer")
	row["transfers"] = n
	row["allocs/transfer"] = allocs
	if err := ledger.Write("../../BENCH_eib.json", "EIBGrant", row); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPathSegments covers the precomputed path table lookup; the
// seed implementation built a fresh slice per call.
func BenchmarkPathSegments(b *testing.B) {
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		segs := pathSegments(RampID(i%NumRamps), RampID((i*5)%NumRamps), Direction(i%2))
		sink += len(segs)
	}
	_ = sink
}
