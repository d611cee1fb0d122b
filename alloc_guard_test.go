package cellbe

// The tracing subsystem is specified as zero-cost when off, and the
// always-on perf counters as allocation-free: a saturated run with no
// tracer (and its counters counting, as always) must leave the EIB/MFC
// hot path's allocation count where the BENCH_eib.json baseline pinned
// it. This test enforces that in plain `go test` runs (and CI), so a
// regression cannot hide until the next manual benchmark pass.

import (
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/ppe"
	"cellbe/internal/sim"
)

func TestEIBSaturatedAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full saturated run: skipped in -short mode")
	}
	baseline := benchBaseline(t, "EIBSaturated", "allocs/op")
	sc := saturatedScenario()
	perOp := testing.AllocsPerRun(1, func() {
		cfg := cell.DefaultConfig()
		cfg.Layout = cell.RandomLayout(3)
		sys := cell.New(cfg)
		if _, err := sc.Install(sys); err != nil {
			t.Fatal(err)
		}
		sys.Run()
	})
	// 2% + 16 allocs of slack absorbs runtime-version noise while still
	// catching any per-transfer or per-command regression (32768 transfers
	// per run: even +0.1 allocs/transfer would blow through this).
	limit := baseline*1.02 + 16
	if perOp > limit {
		t.Fatalf("untraced saturated run allocates %.0f allocs/op, baseline %.0f (limit %.0f): tracing or counter hooks allocate",
			perOp, baseline, limit)
	}
}

// TestEngineAllocGuard pins the scheduler's own allocation budget: one
// warmed EventChurn op (BenchmarkEngine's workload) must stay at the
// handful of allocations the BENCH_eib.json baseline recorded — the
// process spawn plus rare wheel-bucket first touches. Wheel scheduling,
// same-cycle dispatch and process wakeups themselves must contribute
// nothing, so even a single new allocation on a per-event path trips this
// immediately (an op fires ~2k events).
func TestEngineAllocGuard(t *testing.T) {
	baseline := benchBaseline(t, "Engine", "allocs/op")
	// Warm until the wheel reaches steady state. Bucket backings are
	// allocated on first touch and retained, and the churn's far events walk
	// a new higher-level bucket index every op, so it takes a full 64-index
	// lap (not one op) before scheduling stops faulting in fresh backings —
	// the benchmark baseline was likewise recorded after thousands of ops.
	e := sim.NewEngine()
	for i := 0; i < 64; i++ {
		sim.EventChurn(e, sim.ChurnRounds)
	}
	perOp := testing.AllocsPerRun(10, func() { sim.EventChurn(e, sim.ChurnRounds) })
	limit := baseline + 8
	if perOp > limit {
		t.Fatalf("engine churn allocates %.1f allocs/op, baseline %.0f (limit %.0f): a scheduler hot path started allocating",
			perOp, baseline, limit)
	}
}

// memPathCase is one memory-path workload for TestMemPathAllocGuard and
// BenchmarkMemPath: run builds and runs a fresh system to completion.
type memPathCase struct {
	name  string
	limit float64 // allocations per XDR bank access
	run   func(tb testing.TB) *cell.System
}

// memPathCases are the memory-path workloads: SPE GETs from main memory
// (Figure 8's kernel) and a two-thread PPE copy over buffers sized like
// the L2 experiment (Figure 4), whose fills and writebacks reach XDR.
func memPathCases() []memPathCase {
	return []memPathCase{
		{name: "spe-get", limit: 0.25, run: func(tb testing.TB) *cell.System {
			sys := cell.New(cell.DefaultConfig())
			sc := cell.Scenario{Kind: "mem", SPEs: 4, Chunk: 4096, Volume: 256 << 10, Op: "get"}
			if _, err := sc.Install(sys); err != nil {
				tb.Fatal(err)
			}
			if err := sys.RunChecked(0); err != nil {
				tb.Fatal(err)
			}
			return sys
		}},
		{name: "ppe-copy-2t", limit: 0.25, run: func(tb testing.TB) *cell.System {
			sys := cell.New(cell.DefaultConfig())
			buf := int64(sys.Config().PPE.L2Bytes) / 2
			for th := 0; th < 2; th++ {
				src, dst := sys.Alloc(buf, 128), sys.Alloc(buf, 128)
				sys.PPE.Run(th, []ppe.Pass{{Op: ppe.Copy, Src: src, Dst: dst, Bytes: buf, Elem: 8}}, nil)
			}
			if err := sys.RunChecked(0); err != nil {
				tb.Fatal(err)
			}
			return sys
		}},
	}
}

// bankAccesses returns the line accesses both XDR banks served.
func bankAccesses(sys *cell.System) int64 {
	return sys.Mem.BankStats(0).Requests + sys.Mem.BankStats(1).Requests
}

// TestMemPathAllocGuard pins the memory path's allocation budget: XDR line
// accesses, the bank server, the fabric's write completion and the PPE's
// fills and threads run on pooled records, so a whole run divided by its
// bank accesses must stay far below one allocation per access. Before the
// records, an SPE GET cost about 6.3 allocations per access and a PPE
// copy about 8.2 (0.90 while each fill still allocated a completion
// signal); a single closure restored on the path trips this.
func TestMemPathAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full memory-path runs: skipped in -short mode")
	}
	for _, c := range memPathCases() {
		t.Run(c.name, func(t *testing.T) {
			var accesses int64
			allocs := testing.AllocsPerRun(1, func() { accesses = bankAccesses(c.run(t)) })
			perAccess := allocs / float64(accesses)
			t.Logf("%.0f allocs over %d bank accesses: %.3f per access", allocs, accesses, perAccess)
			if perAccess > c.limit {
				t.Fatalf("%.3f allocs per bank access, limit %.2f: the memory path allocates per access", perAccess, c.limit)
			}
		})
	}
}

// TestWorkloadsAllocGuard holds one call of the workloads experiment at
// the paper-figures benchmark's parameters to the heap bytes the
// BENCH_eib.json Workloads row recorded, plus 25% and 2 MiB; both run at
// workloadsProcs, so the bound holds on a machine of any size. Its gups
// and md points scatter writes over simulated RAM, which the carcasses of
// the figure's arena keep across boots one 128-byte line at a time:
// storage at 64 KiB pages, rebuilt on every boot, allocated ~249 MiB per
// call.
func TestWorkloadsAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure run: skipped in -short mode")
	}
	baseline := benchBaseline(t, "Workloads", "bytes/call")
	// The first call of a process also fills the local-store pool, which
	// the benchmark's calls find primed.
	runWorkloads(t)
	bytes, allocs := runWorkloads(t)
	t.Logf("%.1f MiB, %.0f allocs per call (baseline %.1f MiB)", bytes/(1<<20), allocs, baseline/(1<<20))
	if limit := baseline*1.25 + 2<<20; bytes > limit {
		t.Fatalf("one workloads call allocates %.1f MiB, baseline %.1f MiB (limit %.1f MiB): RAM storage or a per-point path allocates again",
			bytes/(1<<20), baseline/(1<<20), limit/(1<<20))
	}
}

// TestServeHitAllocGuard holds a memo-cache hit through the whole serving
// path — HTTP client and server, admission, the point key, the NDJSON
// answer — to the heap bytes per request the BENCH_eib.json ServeHit row
// recorded, plus a fixed 2 KiB. The key of a hit must not build the
// point's random layout, whose math/rand source alone is 4,856 bytes.
func TestServeHitAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of loopback requests: skipped in -short mode")
	}
	baseline := benchBaseline(t, "ServeHit", "bytes/request")
	rig := newServeHitRig(t)
	for range 100 { // reach steady state: connection, pools, journal
		rig.post()
	}
	const requests = 400
	bytes0, _ := heapTotals()
	for range requests {
		rig.post()
	}
	bytes1, _ := heapTotals()
	perRequest := float64(bytes1-bytes0) / requests
	if raceEnabled {
		// The race runtime drops sync.Pool items at random and
		// instruments pointer conversions, so the HTTP path allocates
		// more (~35 KB/request, varying by ~2 KB run to run): not
		// comparable to the recorded baseline.
		t.Skipf("race build: %.0f B/request, not comparable to the baseline %.0f", perRequest, baseline)
	}
	if limit := baseline + 2048; perRequest > limit {
		t.Fatalf("a served cache hit allocates %.0f B/request, baseline %.0f (limit %.0f): the hit path allocates again",
			perRequest, baseline, limit)
	}
	t.Logf("served cache hit: %.0f B/request (baseline %.0f)", perRequest, baseline)
}
