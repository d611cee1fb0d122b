package cellbe

// One benchmark per table/figure of the paper's evaluation. Each bench
// runs the corresponding experiment at reduced volume and reports the
// headline bandwidth numbers as custom metrics (GB/s), so `go test
// -bench=.` regenerates the whole evaluation in one sweep. EXPERIMENTS.md
// records the paper-vs-measured comparison produced from these. The
// design rules the paper derives are checked, rule off against rule on,
// by the abl/* conformance claims:
// go test ./internal/conformance -run 'TestClaims/abl/'.

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/core"
	"cellbe/internal/sim"
)

// benchParams keeps benchmark iterations affordable: 3 layout samples,
// 1 MB per SPE. Steady-state bandwidth is reached well within that.
func benchParams() core.Params {
	p := core.DefaultParams()
	p.Runs = 3
	p.BytesPerSPE = 1 << 20
	p.PPEBytes = 1 << 20
	return p
}

// reportCurve attaches avg GB/s at a given x of a curve as a bench metric.
func reportCurve(b *testing.B, r *core.Result, label string, x int, metric string) {
	b.Helper()
	s, ok := r.At(label, x)
	if !ok {
		b.Fatalf("missing point %s@%d in %s", label, x, r.Name)
	}
	b.ReportMetric(s.Mean, metric)
}

func runExp(b *testing.B, name string, report func(*core.Result)) {
	b.Helper()
	p := benchParams()
	e, err := core.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	var last *core.Result
	for i := 0; i < b.N; i++ {
		r, err := e.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	report(last)
}

func BenchmarkFig03PPEL1(b *testing.B) {
	runExp(b, "ppe-l1", func(r *core.Result) {
		reportCurve(b, r, "load 1T", 8, "load8B-GB/s")
		reportCurve(b, r, "load 1T", 1, "load1B-GB/s")
		reportCurve(b, r, "store 1T", 16, "store16B-GB/s")
		reportCurve(b, r, "copy 1T", 16, "copy16B-GB/s")
	})
}

func BenchmarkFig04PPEL2(b *testing.B) {
	runExp(b, "ppe-l2", func(r *core.Result) {
		reportCurve(b, r, "load 1T", 8, "load1T-GB/s")
		reportCurve(b, r, "load 2T", 8, "load2T-GB/s")
		reportCurve(b, r, "store 1T", 16, "store1T-GB/s")
	})
}

func BenchmarkFig06PPEMem(b *testing.B) {
	runExp(b, "ppe-mem", func(r *core.Result) {
		reportCurve(b, r, "load 1T", 8, "load1T-GB/s")
		reportCurve(b, r, "store 1T", 16, "store1T-GB/s")
		reportCurve(b, r, "copy 2T", 16, "copy2T-GB/s")
	})
}

func BenchmarkFig08SPEMemGet(b *testing.B) {
	runExp(b, "spe-mem-get", func(r *core.Result) {
		reportCurve(b, r, "1 SPE", 16384, "spe1-GB/s")
		reportCurve(b, r, "2 SPE", 16384, "spe2-GB/s")
		reportCurve(b, r, "4 SPE", 16384, "spe4-GB/s")
		reportCurve(b, r, "8 SPE", 16384, "spe8-GB/s")
	})
}

func BenchmarkFig08SPEMemPut(b *testing.B) {
	runExp(b, "spe-mem-put", func(r *core.Result) {
		reportCurve(b, r, "1 SPE", 16384, "spe1-GB/s")
		reportCurve(b, r, "4 SPE", 16384, "spe4-GB/s")
	})
}

func BenchmarkFig08SPEMemCopy(b *testing.B) {
	runExp(b, "spe-mem-copy", func(r *core.Result) {
		reportCurve(b, r, "1 SPE", 16384, "spe1-GB/s")
		reportCurve(b, r, "4 SPE", 16384, "spe4-GB/s")
	})
}

func BenchmarkSPELocalStore(b *testing.B) {
	runExp(b, "spe-ls", func(r *core.Result) {
		reportCurve(b, r, "load", 16, "load16B-GB/s")
		reportCurve(b, r, "load", 4, "load4B-GB/s")
		reportCurve(b, r, "store", 16, "store16B-GB/s")
	})
}

func BenchmarkFig10SyncDelay(b *testing.B) {
	runExp(b, "spe-pair-sync", func(r *core.Result) {
		reportCurve(b, r, "every 1", 2048, "sync1-GB/s")
		reportCurve(b, r, "all", 2048, "syncAll-GB/s")
		reportCurve(b, r, "all", 16384, "syncAll16K-GB/s")
	})
}

func BenchmarkFig12Couples(b *testing.B) {
	runExp(b, "spe-couples", func(r *core.Result) {
		reportCurve(b, r, "2 SPEs", 16384, "spe2-GB/s")
		reportCurve(b, r, "4 SPEs", 16384, "spe4-GB/s")
		reportCurve(b, r, "8 SPEs", 16384, "spe8-GB/s")
	})
}

func BenchmarkFig12CouplesList(b *testing.B) {
	runExp(b, "spe-couples-list", func(r *core.Result) {
		reportCurve(b, r, "2 SPEs", 128, "spe2at128B-GB/s")
		reportCurve(b, r, "8 SPEs", 16384, "spe8-GB/s")
	})
}

func BenchmarkFig13CouplesDist(b *testing.B) {
	// Min/max/median across layouts at 8 SPEs: the layout-placement
	// spread of Figure 13.
	p := benchParams()
	p.Runs = 10
	var spread, min, max float64
	for i := 0; i < b.N; i++ {
		r, err := core.SPECouples(p, false)
		if err != nil {
			b.Fatal(err)
		}
		s, ok := r.At("8 SPEs", 16384)
		if !ok {
			b.Fatal("missing 8-SPE point")
		}
		spread, min, max = s.Spread(), s.Min, s.Max
	}
	b.ReportMetric(min, "min-GB/s")
	b.ReportMetric(max, "max-GB/s")
	b.ReportMetric(spread, "spread-GB/s")
}

func BenchmarkFig15Cycle(b *testing.B) {
	runExp(b, "spe-cycle", func(r *core.Result) {
		reportCurve(b, r, "2 SPEs", 16384, "spe2-GB/s")
		reportCurve(b, r, "4 SPEs", 16384, "spe4-GB/s")
		reportCurve(b, r, "8 SPEs", 16384, "spe8-GB/s")
	})
}

func BenchmarkFig16CycleDist(b *testing.B) {
	p := benchParams()
	p.Runs = 10
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := core.SPECycle(p, false)
		if err != nil {
			b.Fatal(err)
		}
		s, ok := r.At("8 SPEs", 16384)
		if !ok {
			b.Fatal("missing 8-SPE point")
		}
		spread = s.Spread()
	}
	b.ReportMetric(spread, "spread-GB/s")
}

func BenchmarkStreaming(b *testing.B) {
	runExp(b, "streaming", func(r *core.Result) {
		reportCurve(b, r, "aggregate", 1, "oneStream-GB/s")
		reportCurve(b, r, "aggregate", 2, "twoStreams-GB/s")
		reportCurve(b, r, "aggregate", 4, "fourStreams-GB/s")
	})
}

// --- Hot-path perf baselines (BENCH_eib.json) ---

// benchJSONMu serializes updates to the shared BENCH_eib.json baseline.
var benchJSONMu sync.Mutex

// recordBenchBaseline merges the given metrics for one benchmark into
// BENCH_eib.json, the checked-against perf baseline for the EIB hot path.
// Rows hold numbers and, for machine context, strings.
// Regenerate it with: go test -bench 'EIBSaturated|Sweep' -benchmem .
func recordBenchBaseline(b *testing.B, name string, metrics map[string]any) {
	b.Helper()
	benchJSONMu.Lock()
	defer benchJSONMu.Unlock()
	const path = "BENCH_eib.json"
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

// saturatedScenario is the EIB saturation workload the tentpole
// optimization targets: 8 SPEs in a cycle exchanging 4 KB elements, the
// regime where ring-segment conflicts dominate (paper Figures 15/16).
func saturatedScenario() cell.Scenario {
	return cell.Scenario{Kind: "cycle", SPEs: 8, Chunk: 4096, Volume: 256 << 10}
}

// BenchmarkEIBSaturated measures a full saturated-EIB simulation,
// including allocations: the scheduler hot path is required to do
// near-zero allocations per transfer, so allocs/op here is a guarded
// figure of merit, not just a curiosity.
func BenchmarkEIBSaturated(b *testing.B) {
	sc := saturatedScenario()
	var cycles sim.Time
	var transfers int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cell.DefaultConfig()
		cfg.Layout = cell.RandomLayout(3)
		sys := cell.New(cfg)
		total, err := sc.Install(sys)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run()
		cycles = sys.Eng.Now()
		transfers = sys.Bus.Stats().Transfers
		_ = total
	}
	b.StopTimer()
	perOp := testing.AllocsPerRun(1, func() {
		cfg := cell.DefaultConfig()
		cfg.Layout = cell.RandomLayout(3)
		sys := cell.New(cfg)
		if _, err := sc.Install(sys); err != nil {
			b.Fatal(err)
		}
		sys.Run()
	})
	b.ReportMetric(perOp/float64(transfers), "allocs/transfer")
	recordBenchBaseline(b, "EIBSaturated", map[string]any{
		"cycles":          float64(cycles),
		"transfers":       float64(transfers),
		"allocs/op":       perOp,
		"allocs/transfer": perOp / float64(transfers),
	})
}

// BenchmarkSweep measures the parallel sweep runner end to end: a small
// seeds x chunks grid of saturated-cycle runs fanned across workers.
func BenchmarkSweep(b *testing.B) {
	spec := core.SweepSpec{
		Scenario: "cycle",
		SPEs:     8,
		Chunks:   []int{1024, 4096},
		Seeds:    []int64{1, 2, 3},
		Volume:   128 << 10,
	}
	var results []core.SweepResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		results, err = core.RunSweep(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	points := float64(len(results))
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(points*float64(b.N)/elapsed, "points/s")
	}
	recordBenchBaseline(b, "Sweep", map[string]any{
		"points":  points,
		"ns/op":   elapsed * 1e9 / float64(b.N),
		"point/s": points * float64(b.N) / elapsed,
	})
}

// BenchmarkSweepWarm measures the same grid as BenchmarkSweep through the
// arena in steady state: one cell.Arena held across all iterations, every
// grid point stamped onto a recycled carcass (Boot + RunChecked +
// Retire). The delta against BenchmarkSweep is
// the boot-and-teardown overhead the arena removes; allocs/point is the
// alloc-guarded figure of merit for the stamped path.
func BenchmarkSweepWarm(b *testing.B) {
	chunks := []int{1024, 4096}
	seeds := []int64{1, 2, 3}
	var arena cell.Arena
	defer arena.Release()
	runGrid := func() float64 {
		n := 0.0
		for _, c := range chunks {
			for _, sd := range seeds {
				cfg := cell.DefaultConfig()
				cfg.Layout = cell.RandomLayout(sd)
				sys, _, err := arena.Boot(cfg, cell.Scenario{Kind: "cycle", SPEs: 8, Chunk: c, Volume: 128 << 10})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.RunChecked(0); err != nil {
					b.Fatal(err)
				}
				arena.Retire(sys)
				n++
			}
		}
		return n
	}
	points := runGrid() // prime the arena: steady state, not first-boot cost
	b.ReportAllocs()
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		total += runGrid()
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(total/elapsed, "points/s")
	}
	perPoint := testing.AllocsPerRun(1, func() { runGrid() }) / points
	b.ReportMetric(perPoint, "allocs/point")
	recordBenchBaseline(b, "SweepWarm", map[string]any{
		"points":       points,
		"point/s":      total / elapsed,
		"allocs/point": perPoint,
	})
}

// BenchmarkMemPath measures the memory path end to end on the
// TestMemPathAllocGuard workloads — SPE GETs from XDR and a two-thread PPE
// copy at L2 sizing — per XDR bank access: wall time and allocations, the
// figures the pooled line-access, fill and write-completion records moved.
func BenchmarkMemPath(b *testing.B) {
	metrics := map[string]any{"gomaxprocs": runtime.GOMAXPROCS(0)}
	for _, c := range memPathCases() {
		b.Run(c.name, func(b *testing.B) {
			var accesses int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				accesses = bankAccesses(c.run(b))
			}
			b.StopTimer()
			perAccess := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(accesses)
			allocs := testing.AllocsPerRun(1, func() { c.run(b) }) / float64(accesses)
			b.ReportMetric(perAccess, "ns/access")
			b.ReportMetric(allocs, "allocs/access")
			metrics[c.name+" ns/access"] = perAccess
			metrics[c.name+" allocs/access"] = allocs
			metrics[c.name+" accesses"] = float64(accesses)
		})
	}
	recordBenchBaseline(b, "MemPath", metrics)
}

// workloadsParams are the figure parameters of the paper-figures
// benchmark (perfbench's figureParams at layout base 1): 2 layouts,
// 256 KiB per SPE, 64 KiB of PPE traffic.
func workloadsParams() core.Params {
	p := core.DefaultParams()
	p.Runs = 2
	p.BytesPerSPE = 256 << 10
	p.PPEBytes = 64 << 10
	p.Elems = []int{16}
	p.Chunks = []int{256, 2048, 16384}
	return p
}

// workloadsProcs is the GOMAXPROCS a workloads call runs at. The figure
// starts one worker per GOMAXPROCS, and each worker cold-boots its own
// carcass, so bytes per call grow with it; pinning it lets the Workloads
// row and TestWorkloadsAllocGuard measure the same thing on any machine.
const workloadsProcs = 2

// runWorkloads runs one call of the workloads experiment at
// workloadsParams and workloadsProcs and returns its heap bytes and
// allocations, every goroutine it starts included.
func runWorkloads(tb testing.TB) (bytes, allocs float64) {
	tb.Helper()
	e, err := core.Lookup("workloads")
	if err != nil {
		tb.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workloadsProcs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := e.Run(workloadsParams()); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// BenchmarkWorkloads measures one call of the workloads experiment, the
// largest allocator of the paper-figures benchmark (its gups and md
// points scatter writes over simulated RAM). The Workloads row records
// heap bytes and allocations per call (TestWorkloadsAllocGuard holds the
// bytes), the fastest call's wall time with the calls' spread
// (max-min)/min, and the machine. Record it with:
// go test -run xxx -bench 'Workloads$' -benchtime 5x .
func BenchmarkWorkloads(b *testing.B) {
	var bytes, allocs float64
	fastest, slowest := time.Duration(math.MaxInt64), time.Duration(0)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		by, al := runWorkloads(b)
		d := time.Since(start)
		bytes, allocs = bytes+by, allocs+al
		fastest, slowest = min(fastest, d), max(slowest, d)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(bytes/n, "B/call")
	b.ReportMetric(allocs/n, "allocs/call")
	recordBenchBaseline(b, "Workloads", map[string]any{
		"calls":          b.N,
		"bytes/call":     bytes / n,
		"allocs/call":    allocs / n,
		"ns/call min":    fastest.Nanoseconds(),
		"ns/call spread": float64(slowest-fastest) / float64(fastest),
		"goarch":         runtime.GOARCH,
		"gomaxprocs":     workloadsProcs,
		"go":             runtime.Version(),
	})
}

// --- Extensions (the paper's §5 future work) ---

func BenchmarkExtensionKernels(b *testing.B) {
	runExp(b, "kernels", func(r *core.Result) {
		reportCurve(b, r, "dot", 8, "dot8spe-GFLOPS")
		reportCurve(b, r, "matmul", 1, "matmul1spe-GFLOPS")
		reportCurve(b, r, "matmul", 8, "matmul8spe-GFLOPS")
	})
}

func BenchmarkExtensionDMALatency(b *testing.B) {
	runExp(b, "dma-latency", func(r *core.Result) {
		reportCurve(b, r, "LS-to-LS", 128, "ls128B-cycles")
		reportCurve(b, r, "memory", 128, "mem128B-cycles")
	})
}
