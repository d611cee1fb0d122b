package core

// Sweep-path coverage for the workload library (gups, qcd, md, stream).
// These kinds boot through the scheduler's arena like every other kind;
// the tests here pin that a sweep produces exactly what a hand-rolled
// cold loop produces, plus the allocation discipline of the pattern
// interpreter itself.

import (
	"runtime"
	"testing"
	"time"

	"cellbe/internal/cell"
)

// workloadSweepSpecs is one small grid per workload kind, sized so the
// whole differential stays fast under -race.
func workloadSweepSpecs() []SweepSpec {
	return []SweepSpec{
		{Scenario: "gups", SPEs: 4, Op: "both", Chunks: []int{8, 64}, Seeds: []int64{0, 3}, Volume: 16 << 10},
		{Scenario: "qcd", SPEs: 4, Chunks: []int{1024, 4096}, Seeds: []int64{0, 3}, Volume: 64 << 10},
		{Scenario: "md", SPEs: 4, Chunks: []int{512}, Seeds: []int64{0, 3}, Volume: 64 << 10},
		{Scenario: "stream", SPEs: 4, Op: "triad", Chunks: []int{4096, 16384}, Seeds: []int64{3}, Volume: 64 << 10},
	}
}

// TestWorkloadSweepMatchesColdLoop is the sweep-vs-cold differential
// for the pattern family: a scheduler sweep, whose points boot onto
// recycled arena carcasses, must equal a manual cold loop over the same
// grid.
func TestWorkloadSweepMatchesColdLoop(t *testing.T) {
	for _, spec := range workloadSweepSpecs() {
		spec := spec
		t.Run(spec.Scenario, func(t *testing.T) {
			t.Parallel()
			results, err := RunSweep(spec)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			i := 0
			for _, chunk := range spec.Chunks {
				for _, seed := range spec.Seeds {
					res := results[i]
					i++
					if res.Err != nil {
						t.Fatalf("point chunk=%d seed=%d failed: %v", chunk, seed, res.Err)
					}
					cfg := cell.DefaultConfig()
					cfg.Layout = cell.RandomLayout(seed)
					sys := cell.New(cfg)
					total, err := spec.scenario(chunk).Install(sys)
					if err != nil {
						t.Fatalf("cold install chunk=%d: %v", chunk, err)
					}
					if err := sys.RunChecked(0); err != nil {
						t.Fatalf("cold run chunk=%d seed=%d: %v", chunk, seed, err)
					}
					st := sys.Bus.Stats()
					if res.Cycles != sys.Eng.Now() || res.Transfers != st.Transfers ||
						res.Commands != st.Commands || res.WaitCycles != st.WaitCycles ||
						res.GBps != sys.GBps(total, sys.Eng.Now()) {
						t.Errorf("chunk=%d seed=%d: sweep point diverged from cold reference\nsweep: %+v\ncold:  cycles=%d transfers=%d cmds=%d wait=%d gbps=%g",
							chunk, seed, res, sys.Eng.Now(), st.Transfers, st.Commands, st.WaitCycles, sys.GBps(total, sys.Eng.Now()))
					}
					sys.Release()
				}
			}
			if i != len(results) {
				t.Fatalf("sweep returned %d points, grid has %d", len(results), i)
			}
		})
	}
}

// TestColdSweepLeaksNoGoroutines: coroutine-kernel sweeps must not leave
// goroutines behind — not the workers, and not the carriers of the
// kernels their points ran. Ten gups sweeps after a warm-up must leave
// the goroutine count where it was.
func TestColdSweepLeaksNoGoroutines(t *testing.T) {
	spec := SweepSpec{Scenario: "gups", SPEs: 4, Op: "both", Chunks: []int{8, 64}, Seeds: []int64{0, 3}, Volume: 16 << 10}
	if _, err := RunSweep(spec); err != nil {
		t.Fatalf("warm-up sweep: %v", err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := RunSweep(spec); err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	// Finished workers may still be on their way out; give them a moment.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutines grew %d -> %d over ten cold-path sweeps", before, after)
	}
}

// TestWorkloadColdAllocParity is the alloc-accounting guard for the
// pattern family's cold path (the only path these kinds have — see the
// warm-path guard in sweep_smoke_test.go for the canonical kinds). The
// memory path runs on pooled records, so a cold point's marginal
// allocations per command are near zero; what remains is a few hundred
// allocations of one-time growth over thousands of commands, and it
// differs between shapes, so a flat-allocation invariant still cannot
// hold here. The
// invariant that can: the pattern interpreter adds nothing on top of the
// canonical kernel. A GUPS "both" point and a mem "copy"
// point at the same chunk and volume issue the same number of DMA
// commands, so their *marginal* allocations per command — measured by
// differencing two volumes, which cancels all setup cost — must be at
// parity. An allocation sneaking into the interpreter's per-element loop
// (a per-slot slice, a formatted tag, a rand re-seed) breaks parity by
// thousands and trips this at once.
func TestWorkloadColdAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement: skipped in -short mode")
	}
	point := func(sc cell.Scenario) float64 {
		return testing.AllocsPerRun(3, func() {
			sys := cell.New(cell.DefaultConfig())
			defer sys.Release()
			if _, err := sc.Install(sys); err != nil {
				t.Fatalf("install: %v", err)
			}
			if err := sys.RunChecked(0); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
	marginal := func(kind, op string) float64 {
		small := point(cell.Scenario{Kind: kind, SPEs: 4, Chunk: 64, Volume: 16 << 10, Op: op})
		big := point(cell.Scenario{Kind: kind, SPEs: 4, Chunk: 64, Volume: 64 << 10, Op: op})
		return big - small // allocs attributable to the extra 6144 commands
	}
	ref := marginal("mem", "copy")  // canonical kernel, 2 commands/element
	got := marginal("gups", "both") // pattern interpreter, 2 commands/element
	// 15% covers scheduler-state noise between the two shapes (different
	// address streams exercise different event-heap growth points).
	if limit := ref*1.15 + 256; got > limit {
		t.Fatalf("gups marginal allocations %.0f exceed canonical mem-copy reference %.0f (limit %.0f): the pattern interpreter allocates per element",
			got, ref, limit)
	}
	t.Logf("marginal allocs over 6144 extra commands: gups %.0f, mem reference %.0f", got, ref)
}
