package sim

import (
	"testing"
	"time"

	"cellbe/internal/ledger"
)

// BenchmarkEngine measures raw scheduler throughput on the EventChurn
// traffic mix (same-cycle dispatch, near and far wheel schedules, process
// wakeups) and records each op's ns/event (median, quartiles, min) plus
// allocs/op as the "Engine" entry of the repository's BENCH_eib.json
// baseline. The allocation guard next to that file pins the recorded
// allocs/op.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	EventChurn(e, ChurnRounds) // warm the wheel: measure steady state
	b.ReportAllocs()
	b.ResetTimer()
	var fired int64
	var samples []float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		n := EventChurn(e, ChurnRounds)
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(n))
		fired += n
	}
	b.StopTimer()
	perRun := float64(fired) / float64(b.N)
	b.ReportMetric(perRun, "events/op")
	allocs := testing.AllocsPerRun(1, func() { EventChurn(e, ChurnRounds) })
	row := ledger.Timed("ns/event", samples)
	row["events/op"], row["allocs/op"] = perRun, allocs
	recordBaseline(b, "Engine", row)
}

// BenchmarkProcessHandoff measures the engine/process hand-off: one op is
// one Wait(1) round trip, engine to body and back, on a single long-lived
// process, timed in rounds of handoffRound ops. It records the rounds'
// ns/handoff (median, quartiles, min), the allocations of one
// spawn-and-finish cycle (allocs/spawn) and the machine as the
// "ProcessHandoff" entry of BENCH_eib.json.
func BenchmarkProcessHandoff(b *testing.B) {
	const handoffRound = 1000
	e := NewEngine()
	Spawn(e, "handoff", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	var samples []float64
	for done := 0; done < b.N; done += handoffRound {
		n := min(handoffRound, b.N-done)
		start := time.Now()
		e.RunUntil(e.Now() + Time(n))
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	e.Run()
	b.StopTimer()
	row := ledger.Timed("ns/handoff", samples)
	b.ReportMetric(row["ns/handoff median"].(float64), "ns/handoff")
	row["allocs/spawn"] = testing.AllocsPerRun(100, func() {
		Spawn(e, "spawn", func(p *Process) { p.Wait(1) })
		e.Run()
	})
	recordBaseline(b, "ProcessHandoff", row)
}

// recordBaseline merges one named entry into the repository-root
// BENCH_eib.json through the ledger package, which stamps the machine.
func recordBaseline(b *testing.B, name string, metrics map[string]any) {
	b.Helper()
	if err := ledger.Write("../../BENCH_eib.json", name, metrics); err != nil {
		b.Fatal(err)
	}
}
