package sim

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// BenchmarkEngine measures raw scheduler throughput on the EventChurn
// traffic mix (same-cycle dispatch, near and far wheel schedules, process
// wakeups) and records events/s plus allocs/op as the "Engine" entry of
// the repository's BENCH_eib.json baseline. The allocation guard next to
// that file pins the recorded allocs/op.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	EventChurn(e, ChurnRounds) // warm the wheel: measure steady state
	b.ReportAllocs()
	b.ResetTimer()
	var fired int64
	for i := 0; i < b.N; i++ {
		fired += EventChurn(e, ChurnRounds)
	}
	b.StopTimer()
	perRun := float64(fired) / float64(b.N)
	b.ReportMetric(perRun, "events/op")
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(fired)/elapsed, "events/s")
	}
	allocs := testing.AllocsPerRun(1, func() { EventChurn(e, ChurnRounds) })
	recordBaseline(b, "Engine", map[string]any{
		"events/op": perRun,
		"events/s":  float64(fired) / elapsed,
		"allocs/op": allocs,
	})
}

// BenchmarkProcessHandoff measures the engine/process hand-off: one op is
// one Wait(1) round trip, engine to body and back, on a single long-lived
// process. It records ns/handoff, the allocations of one spawn-and-finish
// cycle (allocs/spawn) and GOMAXPROCS as the "ProcessHandoff" entry of
// BENCH_eib.json.
func BenchmarkProcessHandoff(b *testing.B) {
	e := NewEngine()
	Spawn(e, "handoff", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	nsPerHandoff := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(nsPerHandoff, "ns/handoff")
	allocs := testing.AllocsPerRun(100, func() {
		Spawn(e, "spawn", func(p *Process) { p.Wait(1) })
		e.Run()
	})
	recordBaseline(b, "ProcessHandoff", map[string]any{
		"ns/handoff":   nsPerHandoff,
		"allocs/spawn": allocs,
		"gomaxprocs":   float64(runtime.GOMAXPROCS(0)),
	})
}

// recordBaseline merges one named entry into the repository-root
// BENCH_eib.json (the same file the root-package benchmarks maintain; this
// package can't share their helper, so the merge is reimplemented). Rows
// hold numbers and, for machine context, strings.
func recordBaseline(b *testing.B, name string, metrics map[string]any) {
	b.Helper()
	const path = "../../BENCH_eib.json"
	all := map[string]map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			b.Logf("ignoring unparsable %s: %v", path, err)
			all = map[string]map[string]any{}
		}
	}
	all[name] = metrics
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
