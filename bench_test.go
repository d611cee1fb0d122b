package cellbe

// One benchmark per table/figure of the paper's evaluation, plus ablation
// benches for the design rules the paper derives. Each bench runs the
// corresponding experiment at reduced volume and reports the headline
// bandwidth numbers as custom metrics (GB/s), so `go test -bench=.`
// regenerates the whole evaluation in one sweep. EXPERIMENTS.md records
// the paper-vs-measured comparison produced from these.

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/core"
	"cellbe/internal/perfctr"
	"cellbe/internal/ppe"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
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
// Regenerate it with: go test -bench 'EIBSaturated|Sweep' -benchmem .
func recordBenchBaseline(b *testing.B, name string, metrics map[string]float64) {
	b.Helper()
	benchJSONMu.Lock()
	defer benchJSONMu.Unlock()
	const path = "BENCH_eib.json"
	all := map[string]map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			b.Logf("ignoring unparsable %s: %v", path, err)
			all = map[string]map[string]float64{}
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
	recordBenchBaseline(b, "EIBSaturated", map[string]float64{
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
	recordBenchBaseline(b, "Sweep", map[string]float64{
		"points":  points,
		"ns/op":   elapsed * 1e9 / float64(b.N),
		"point/s": points * float64(b.N) / elapsed,
	})
}

// BenchmarkSweepWarm measures the same grid as BenchmarkSweep through the
// warm-clone path in steady state: one snapshot held across all
// iterations, every grid point stamped onto a recycled arena carcass
// (CloneFor + RunChecked + Retire). The delta against BenchmarkSweep is
// the boot-and-teardown overhead the arena removes; allocs/point is the
// alloc-guarded figure of merit for the stamped path.
func BenchmarkSweepWarm(b *testing.B) {
	chunks := []int{1024, 4096}
	seeds := []int64{1, 2, 3}
	tpl := cell.New(cell.DefaultConfig())
	sc := cell.Scenario{Kind: "cycle", SPEs: 8, Chunk: chunks[0], Volume: 128 << 10}
	if _, err := sc.Install(tpl); err != nil {
		b.Fatal(err)
	}
	snap, err := tpl.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	snap.Retire(tpl)
	runGrid := func() float64 {
		n := 0.0
		for _, c := range chunks {
			for _, sd := range seeds {
				cfg := snap.Config()
				cfg.Layout = cell.RandomLayout(sd)
				sys, _, err := snap.CloneFor(cfg, c)
				if err != nil {
					b.Fatal(err)
				}
				sys.SetPerf(&perfctr.Counters{})
				if err := sys.RunChecked(0); err != nil {
					b.Fatal(err)
				}
				snap.Retire(sys)
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
	recordBenchBaseline(b, "SweepWarm", map[string]float64{
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
	metrics := map[string]float64{"gomaxprocs": float64(runtime.GOMAXPROCS(0))}
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

// --- Ablations: the design rules §5 derives, each with the rule on/off ---

// BenchmarkAblationSyncEvery measures the cost of synchronizing after
// every DMA versus delaying the wait (the paper's first programming rule).
func BenchmarkAblationSyncEvery(b *testing.B) {
	var eager, delayed float64
	for i := 0; i < b.N; i++ {
		sys := cell.New(cell.DefaultConfig())
		eager = pairOnce(sys, 2048, 1)
		sys = cell.New(cell.DefaultConfig())
		delayed = pairOnce(sys, 2048, 0)
	}
	b.ReportMetric(eager, "syncEvery1-GB/s")
	b.ReportMetric(delayed, "delayed-GB/s")
}

func pairOnce(sys *cell.System, chunk, syncEvery int) float64 {
	const volume = 1 << 20
	var cycles sim.Time
	sys.SPEs[0].Run("pair", func(ctx *spe.Context) {
		start := ctx.Decrementer()
		peer := sys.LSEA(1, 0)
		issued, i := 0, 0
		for off := int64(0); off < volume; off += int64(chunk) {
			slot := i % 8
			ctx.Get(slot*chunk, peer+int64(slot*chunk), chunk, 0)
			ctx.Put(64<<10+slot*chunk, peer+int64(slot*chunk), chunk, 1)
			issued += 2
			i++
			if syncEvery > 0 && issued >= syncEvery {
				ctx.WaitTagMask(3)
				issued = 0
			}
		}
		ctx.WaitTagMask(3)
		cycles = ctx.Decrementer() - start
	})
	sys.Run()
	return sys.GBps(2*volume, cycles)
}

// BenchmarkAblationListVsElem compares DMA-list against DMA-elem for
// small chunks (the paper: lists keep peak bandwidth below 1 KB).
func BenchmarkAblationListVsElem(b *testing.B) {
	p := benchParams()
	p.Runs = 1
	var elem, list float64
	for i := 0; i < b.N; i++ {
		r, err := core.SPECouples(p, false)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := r.At("2 SPEs", 128)
		elem = s.Mean
		r, err = core.SPECouples(p, true)
		if err != nil {
			b.Fatal(err)
		}
		s, _ = r.At("2 SPEs", 128)
		list = s.Mean
	}
	b.ReportMetric(elem, "elem128B-GB/s")
	b.ReportMetric(list, "list128B-GB/s")
}

// BenchmarkAblationSingleBank shows why interleaved NUMA allocation
// matters: with all pages on the local bank, multi-SPE memory bandwidth
// caps at the MIC's 16.8 GB/s instead of ~20+.
func BenchmarkAblationSingleBank(b *testing.B) {
	var inter, single float64
	for i := 0; i < b.N; i++ {
		inter = memGetOnce(b, true, 16)
		single = memGetOnce(b, false, 16)
	}
	b.ReportMetric(inter, "interleaved-GB/s")
	b.ReportMetric(single, "singleBank-GB/s")
}

func memGetOnce(b *testing.B, interleave bool, window int) float64 {
	b.Helper()
	cfg := cell.DefaultConfig()
	cfg.Mem.Interleave = interleave
	cfg.MFC.Window = window
	sys := cell.New(cfg)
	const volume = 1 << 20
	var last sim.Time
	for i := 0; i < 4; i++ {
		i := i
		base := sys.Alloc(volume, 1<<16)
		sys.SPEs[i].Run("mem", func(ctx *spe.Context) {
			for off := int64(0); off < volume; off += 16384 {
				ctx.Get(int(off)%(128<<10), base+off, 16384, 0)
			}
			ctx.WaitTagMask(1)
			if e := ctx.Decrementer(); e > last {
				last = e
			}
		})
	}
	sys.Run()
	return sys.GBps(4*volume, last)
}

// BenchmarkAblationWindow shows that a single SPE's ~10 GB/s memory limit
// is the MFC's outstanding-transfer window times line size over round-trip
// latency: quadrupling the window lifts the ceiling.
func BenchmarkAblationWindow(b *testing.B) {
	var w16, w64 float64
	for i := 0; i < b.N; i++ {
		w16 = singleSPEGet(b, 16)
		w64 = singleSPEGet(b, 64)
	}
	b.ReportMetric(w16, "window16-GB/s")
	b.ReportMetric(w64, "window64-GB/s")
}

func singleSPEGet(b *testing.B, window int) float64 {
	b.Helper()
	cfg := cell.DefaultConfig()
	cfg.MFC.Window = window
	sys := cell.New(cfg)
	const volume = 1 << 20
	base := sys.Alloc(volume, 1<<16)
	var cycles sim.Time
	sys.SPEs[0].Run("mem", func(ctx *spe.Context) {
		start := ctx.Decrementer()
		for off := int64(0); off < volume; off += 16384 {
			ctx.Get(int(off)%(128<<10), base+off, 16384, 0)
		}
		ctx.WaitTagMask(1)
		cycles = ctx.Decrementer() - start
	})
	sys.Run()
	return sys.GBps(volume, cycles)
}

// BenchmarkAblationPrefetch shows the L2 stream prefetcher is what makes
// PPE memory reads match L2 reads (Figure 6's surprising equality).
func BenchmarkAblationPrefetch(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = ppeMemLoad(b, cell.DefaultConfig().PPE.PrefetchDepth)
		off = ppeMemLoad(b, 0)
	}
	b.ReportMetric(on, "prefetchOn-GB/s")
	b.ReportMetric(off, "prefetchOff-GB/s")
}

func ppeMemLoad(b *testing.B, depth int) float64 {
	b.Helper()
	cfg := cell.DefaultConfig()
	cfg.PPE.PrefetchDepth = depth
	sys := cell.New(cfg)
	const volume = 1 << 20
	base := sys.Alloc(volume, 128)
	var cycles sim.Time
	sys.PPE.Spawn(0, "load", func(t *ppe.Thread) {
		start := t.Now()
		t.StreamLoad(base, volume, 8)
		cycles = t.Now() - start
	})
	sys.Run()
	return sys.GBps(volume, cycles)
}

// BenchmarkAblationRingGap isolates the EIB arbitration-efficiency model:
// with no switching gap the rings pack perfectly and the couples
// experiment overshoots the measured 95 GB/s.
func BenchmarkAblationRingGap(b *testing.B) {
	var ideal, real float64
	for i := 0; i < b.N; i++ {
		ideal = couplesOnce(b, 0)
		real = couplesOnce(b, cell.DefaultConfig().EIB.RingDeadCycles)
	}
	b.ReportMetric(ideal, "idealArbiter-GB/s")
	b.ReportMetric(real, "realArbiter-GB/s")
}

func couplesOnce(b *testing.B, gap sim.Time) float64 {
	b.Helper()
	// Average across layouts: the arbitration gap only matters on
	// placements whose transfer paths collide.
	const seeds = 6
	sum := 0.0
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := cell.DefaultConfig()
		cfg.EIB.RingDeadCycles = gap
		cfg.Layout = cell.RandomLayout(seed)
		sys := cell.New(cfg)
		const volume = 1 << 20
		var last sim.Time
		for c := 0; c < 4; c++ {
			active, passive := 2*c, 2*c+1
			peer := sys.LSEA(passive, 0)
			sys.SPEs[active].Run("couple", func(ctx *spe.Context) {
				i := 0
				for off := int64(0); off < volume; off += 16384 {
					slot := i % 8
					ctx.Get(slot*16384, peer+int64(slot*16384), 16384, 0)
					ctx.Put(128<<10+slot*16384, peer+int64(slot*16384), 16384, 1)
					i++
				}
				ctx.WaitTagMask(3)
				if e := ctx.Decrementer(); e > last {
					last = e
				}
			})
		}
		sys.Run()
		sum += sys.GBps(8*volume, last)
	}
	return sum / seeds
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
