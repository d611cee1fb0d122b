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
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/core"
	"cellbe/internal/journal"
	"cellbe/internal/ledger"
	"cellbe/internal/serve"
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

// recordBenchBaseline merges the given metrics for one benchmark into
// BENCH_eib.json, the checked-against perf baseline for the EIB hot path,
// through the ledger package every benchmark package writes it with.
// Regenerate it with: go test -bench 'EIBSaturated|Sweep' -benchmem .
func recordBenchBaseline(b *testing.B, name string, metrics map[string]any) {
	b.Helper()
	if err := ledger.Write("BENCH_eib.json", name, metrics); err != nil {
		b.Fatal(err)
	}
}

// recordTimedBaseline records a row whose timing is one sample per
// benchmark iteration, in unit: metrics plus the samples' median,
// quartiles and min (ledger.Timed).
func recordTimedBaseline(b *testing.B, name, unit string, samples []float64, metrics map[string]any) {
	b.Helper()
	for k, v := range ledger.Timed(unit, samples) {
		metrics[k] = v
	}
	recordBenchBaseline(b, name, metrics)
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
// figure of merit, not just a curiosity. The EIBSaturated row records
// each run's wall time per transfer (median, quartiles, min), the
// simulated cycles and transfers, and the allocations.
func BenchmarkEIBSaturated(b *testing.B) {
	sc := saturatedScenario()
	var cycles sim.Time
	var transfers int64
	var samples []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		cfg := cell.DefaultConfig()
		cfg.Layout = cell.RandomLayout(3)
		sys := cell.New(cfg)
		if _, err := sc.Install(sys); err != nil {
			b.Fatal(err)
		}
		sys.Run()
		cycles = sys.Eng.Now()
		transfers = sys.Bus.Stats().Transfers
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(transfers))
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
	recordTimedBaseline(b, "EIBSaturated", "ns/transfer", samples, map[string]any{
		"cycles":          float64(cycles),
		"transfers":       float64(transfers),
		"allocs/op":       perOp,
		"allocs/transfer": perOp / float64(transfers),
	})
}

// BenchmarkSweep measures the parallel sweep runner end to end: the
// sweepBenchSpec grid of saturated-cycle runs fanned across workers. The
// Sweep row records each iteration's point/s (median, quartiles, min);
// TestSweepThroughputSmoke holds a fresh sweep to its median. Record it
// with: go test -run xxx -bench 'Sweep$' -benchtime 20x .
func BenchmarkSweep(b *testing.B) {
	spec := sweepBenchSpec()
	var points float64
	var samples []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		results, err := core.RunSweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		points = float64(len(results))
		samples = append(samples, points/time.Since(start).Seconds())
	}
	b.StopTimer()
	recordTimedBaseline(b, "Sweep", "point/s", samples, map[string]any{"points": points})
}

// BenchmarkSweepWarm measures the same grid as BenchmarkSweep on one
// goroutine with no scheduler: one cell.Arena held across all
// iterations, every grid point stamped onto a recycled carcass (Boot +
// RunChecked + Retire). allocs/point is the alloc-guarded figure of merit
// for the stamped path. The SweepWarm row records each grid's wall time
// per point (median, quartiles, min).
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
	var samples []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		runGrid()
		samples = append(samples, float64(time.Since(start).Nanoseconds())/points)
	}
	b.StopTimer()
	perPoint := testing.AllocsPerRun(1, func() { runGrid() }) / points
	b.ReportMetric(perPoint, "allocs/point")
	recordTimedBaseline(b, "SweepWarm", "ns/point", samples, map[string]any{
		"points":       points,
		"allocs/point": perPoint,
	})
}

// serveHitRig is BenchmarkServeHit's server, shared with
// TestServeHitAllocGuard: an in-process serve.New over loopback HTTP
// whose scheduler journals to a real directory, answering a one-point
// sweep that the rig has already simulated once.
type serveHitRig struct {
	tb    testing.TB
	url   string
	sched *core.Scheduler
	jr    *journal.Journal
}

// serveHitBody is the rig's one-point sweep.
var serveHitBody = []byte(`{"scenario":"pair","spes":2,"chunks":[4096],"seeds":[1],"volume":65536}`)

// newServeHitRig starts the rig, posts the miss that warms its cache,
// and stops it when tb ends.
func newServeHitRig(tb testing.TB) *serveHitRig {
	jr, _, err := journal.Open(tb.TempDir(), journal.Options{SyncEvery: 8})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { jr.Close() })
	sched := core.NewScheduler(core.SchedOptions{Workers: 2, CachePoints: 4096, Journal: jr})
	tb.Cleanup(sched.Close)
	ts := httptest.NewServer(serve.New(serve.Options{Sched: sched, Journal: jr}))
	tb.Cleanup(ts.Close)
	r := &serveHitRig{tb: tb, url: ts.URL + "/v1/sweeps", sched: sched, jr: jr}
	r.post()
	return r
}

// post sends the sweep and reads its NDJSON answer to the end.
func (r *serveHitRig) post() {
	resp, err := http.Post(r.url, "application/json", bytes.NewReader(serveHitBody))
	if err != nil {
		r.tb.Fatal(err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		r.tb.Fatalf("sweep request: status %d, %v", resp.StatusCode, err)
	}
}

// heapTotals returns the process's cumulative heap allocations: bytes
// and objects.
func heapTotals() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// BenchmarkServeHit measures a memo-cache hit end to end through the
// serving layer: serveHitRig's one-point sweep, with the clock stopped
// after the NDJSON trailer. Each iteration is a round of serveHitRound
// requests; the ServeHit row records the rounds' ns/request (median,
// quartiles, min), the heap allocations and bytes per request (client
// and server together) and the journal fsyncs per request. Record it
// with: go test -run xxx -bench 'ServeHit$' -benchtime 10x .
func BenchmarkServeHit(b *testing.B) {
	const serveHitRound = 200
	rig := newServeHitRig(b)
	syncs0 := rig.jr.Health().Syncs
	bytes0, objects0 := heapTotals()
	var samples []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for range serveHitRound {
			rig.post()
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/serveHitRound)
	}
	b.StopTimer()
	bytes1, objects1 := heapTotals()
	requests := float64(b.N * serveHitRound)
	if st := rig.sched.CacheStats(); st.Hits != int64(requests) || st.Simulations != 1 {
		b.Fatalf("cache stats %+v, want %d hits and the one warming simulation", st, int64(requests))
	}
	syncs := float64(rig.jr.Health().Syncs-syncs0) / requests
	allocs, perRequest := float64(objects1-objects0)/requests, float64(bytes1-bytes0)/requests
	b.ReportMetric(syncs, "syncs/request")
	b.ReportMetric(allocs, "allocs/request")
	b.ReportMetric(perRequest, "B/request")
	recordTimedBaseline(b, "ServeHit", "ns/request", samples, map[string]any{
		"requests/round":        serveHitRound,
		"journal syncs/request": syncs,
		"allocs/request":        allocs,
		"bytes/request":         perRequest,
	})
}

// BenchmarkMemPath measures the memory path end to end on the
// TestMemPathAllocGuard workloads — SPE GETs from XDR and a two-thread PPE
// copy at L2 sizing — per XDR bank access: wall time and allocations, the
// figures the pooled line-access, fill and write-completion records moved.
// The MemPath row records, per workload, the runs' ns/access (median,
// quartiles, min) and allocations per access. Record it with:
// go test -run xxx -bench 'MemPath$' -benchtime 50x .
func BenchmarkMemPath(b *testing.B) {
	metrics := map[string]any{}
	for _, c := range memPathCases() {
		b.Run(c.name, func(b *testing.B) {
			var accesses int64
			var samples []float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				accesses = bankAccesses(c.run(b))
				samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(accesses))
			}
			b.StopTimer()
			allocs := testing.AllocsPerRun(1, func() { c.run(b) }) / float64(accesses)
			b.ReportMetric(allocs, "allocs/access")
			for k, v := range ledger.Timed("ns/access", samples) {
				metrics[c.name+" "+k] = v
			}
			metrics[c.name+" allocs/access"] = allocs
			metrics[c.name+" accesses"] = accesses
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
// bytes), the calls' wall time (median, quartiles, min), and the
// machine. Record it with:
// go test -run xxx -bench 'Workloads$' -benchtime 5x .
func BenchmarkWorkloads(b *testing.B) {
	var bytes, allocs float64
	var samples []float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		by, al := runWorkloads(b)
		samples = append(samples, float64(time.Since(start).Nanoseconds()))
		bytes, allocs = bytes+by, allocs+al
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(bytes/n, "B/call")
	b.ReportMetric(allocs/n, "allocs/call")
	recordTimedBaseline(b, "Workloads", "ns/call", samples, map[string]any{
		"bytes/call":  bytes / n,
		"allocs/call": allocs / n,
		"gomaxprocs":  workloadsProcs,
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
