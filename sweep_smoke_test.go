package cellbe

// CI benchmark smoke for the sweep runner: plain `go test` runs must
// catch a collapse of sweep throughput or a regression in the warm-clone
// path's allocation budget without waiting for a manual benchmark pass.
// Both tests check against the BENCH_eib.json baseline the benchmarks
// record (regenerate with: go test -bench 'Sweep' -benchmem .).

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/core"
)

// benchBaseline reads one metric of one benchmark from BENCH_eib.json,
// skipping the test when the baseline or entry is absent.
func benchBaseline(t *testing.T, bench, metric string) float64 {
	t.Helper()
	data, err := os.ReadFile("BENCH_eib.json")
	if err != nil {
		t.Skipf("no baseline: %v", err)
	}
	var all map[string]map[string]any
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("unparsable BENCH_eib.json: %v", err)
	}
	v, ok := all[bench][metric].(float64)
	if !ok {
		t.Skipf("baseline has no %s %s entry", bench, metric)
	}
	return v
}

// sweepBenchSpec is BenchmarkSweep's grid, shared by the smoke test so
// the baseline and the assertion measure the same workload.
func sweepBenchSpec() core.SweepSpec {
	return core.SweepSpec{
		Scenario: "cycle",
		SPEs:     8,
		Chunks:   []int{1024, 4096},
		Seeds:    []int64{1, 2, 3},
		Volume:   128 << 10,
	}
}

// TestSweepThroughputSmoke holds end-to-end sweep throughput to the
// BENCH_eib.json Sweep baseline within a generous band: 2.5x in either
// direction absorbs CI-machine variance and timer noise on a single
// sample, while still catching an order-of-magnitude collapse (a
// quadratic hot path, an accidental cold-boot-per-point regression) —
// and, on the high side, a stale dishonestly-low baseline.
func TestSweepThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timed full sweep: skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timed assertion: the race detector's slowdown would fail any honest band")
	}
	base := benchBaseline(t, "Sweep", "point/s")
	spec := sweepBenchSpec()

	// One warmup sweep (JIT-free, but page faults and first-touch pool
	// growth are real), then one timed sample.
	if _, err := core.RunSweep(spec); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	results, err := core.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	got := float64(len(results)) / elapsed

	// Asymmetric band: 2.5x below catches a collapse on any plausible
	// machine; only a 4x overshoot flags the baseline as dishonestly low
	// (merely faster CI hardware must not fail the build).
	if got < base/2.5 {
		t.Errorf("sweep throughput %.1f point/s fell below baseline %.1f/2.5 (re-baseline with go test -bench Sweep . if the machine class changed)",
			got, base)
	}
	if got > base*4 {
		t.Errorf("sweep throughput %.1f point/s exceeds baseline %.1f x4: BENCH_eib.json is stale, re-record it",
			got, base)
	}
	t.Logf("sweep throughput %.1f point/s (baseline %.1f)", got, base)
}

// TestSweepWarmAllocGuard pins the arena's steady-state allocation
// budget: stamping and running a grid point on a recycled carcass must
// stay at the few dozen allocations the SweepWarm baseline recorded. Any
// per-command, per-packet or per-reset allocation sneaking back into the
// boot path trips this immediately (a point moves hundreds of DMA
// commands).
func TestSweepWarmAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full warm grid: skipped in -short mode")
	}
	base := benchBaseline(t, "SweepWarm", "allocs/point")

	spec := sweepBenchSpec()
	var arena cell.Arena
	defer arena.Release()
	gridPoints := float64(len(spec.Chunks) * len(spec.Seeds))
	runGrid := func() {
		for _, c := range spec.Chunks {
			for _, sd := range spec.Seeds {
				cfg := cell.DefaultConfig()
				cfg.Layout = cell.RandomLayout(sd)
				sc := cell.Scenario{Kind: spec.Scenario, SPEs: spec.SPEs, Chunk: c, Volume: spec.Volume}
				sys, _, err := arena.Boot(cfg, sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.RunChecked(0); err != nil {
					t.Fatal(err)
				}
				arena.Retire(sys)
			}
		}
	}
	runGrid() // reach steady state: pools primed, wheel buckets touched
	perPoint := testing.AllocsPerRun(2, runGrid) / gridPoints
	// 10% + 8 allocs of slack absorbs runtime-version noise; a single new
	// per-command allocation would add hundreds per point.
	limit := base*1.10 + 8
	if perPoint > limit {
		t.Fatalf("warm clone path allocates %.1f allocs/point, baseline %.1f (limit %.1f): the arena reset path started allocating",
			perPoint, base, limit)
	}
	t.Logf("warm clone path: %.1f allocs/point (baseline %.1f)", perPoint, base)
}
