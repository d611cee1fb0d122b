package cellbe

// The tracing subsystem is specified as zero-cost when off: attaching no
// tracer must leave the EIB/MFC hot path's allocation count exactly where
// the BENCH_eib.json baseline pinned it. This test enforces that in plain
// `go test` runs (and CI), so a regression cannot hide until the next
// manual benchmark pass.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/perfctr"
	"cellbe/internal/ppe"
	"cellbe/internal/sim"
)

func TestEIBSaturatedAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full saturated run: skipped in -short mode")
	}
	data, err := os.ReadFile("BENCH_eib.json")
	if err != nil {
		t.Skipf("no baseline: %v (regenerate with go test -bench 'EIBSaturated|Sweep' -benchmem .)", err)
	}
	var all map[string]map[string]float64
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("unparsable BENCH_eib.json: %v", err)
	}
	baseline, ok := all["EIBSaturated"]["allocs/op"]
	if !ok {
		t.Skip("baseline has no EIBSaturated allocs/op entry")
	}

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
		t.Fatalf("untraced saturated run allocates %.0f allocs/op, baseline %.0f (limit %.0f): tracing hooks are no longer free when off",
			perOp, baseline, limit)
	}
}

// TestEIBSaturatedCounterGuard extends the zero-cost-when-off contract
// to the perf-counter subsystem: running the saturated benchmark
// scenario with a counter block attached must finish at the identical
// cycle with identical EIB statistics (counters observe arbitration,
// never participate in it), and the counters themselves must stay
// allocation-free — the counted run may allocate at most the one
// Counters block more than the bare run. The BENCH_eib.json baseline
// needs no update: with cycles and allocations unchanged, the recorded
// figures still describe the counters-off path exactly.
func TestEIBSaturatedCounterGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full saturated run: skipped in -short mode")
	}
	sc := saturatedScenario()
	signature := func(counted bool) (string, float64) {
		var sig string
		perOp := testing.AllocsPerRun(1, func() {
			cfg := cell.DefaultConfig()
			cfg.Layout = cell.RandomLayout(3)
			sys := cell.New(cfg)
			if counted {
				sys.SetPerf(&perfctr.Counters{})
			}
			if _, err := sc.Install(sys); err != nil {
				t.Fatal(err)
			}
			sys.Run()
			st := sys.Bus.Stats()
			sig = fmt.Sprintf("now=%d transfers=%d local=%d bytes=%d cmds=%d busy=%v wait=%d",
				sys.Eng.Now(), st.Transfers, st.LocalTransfers, st.Bytes, st.Commands, st.BusyCycles, st.WaitCycles)
		})
		return sig, perOp
	}
	bare, bareAllocs := signature(false)
	counted, countedAllocs := signature(true)
	if bare != counted {
		t.Errorf("counters perturbed the simulation\n bare:    %s\n counted: %s", bare, counted)
	}
	// One Counters block plus generous runtime noise; any per-transfer
	// counter allocation would add tens of thousands (32768 transfers).
	if countedAllocs > bareAllocs+16 {
		t.Errorf("counted run allocates %.0f vs bare %.0f: counter hooks allocate on the hot path", countedAllocs, bareAllocs)
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
	data, err := os.ReadFile("BENCH_eib.json")
	if err != nil {
		t.Skipf("no baseline: %v (regenerate with go test ./internal/sim -bench Engine)", err)
	}
	var all map[string]map[string]float64
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("unparsable BENCH_eib.json: %v", err)
	}
	baseline, ok := all["Engine"]["allocs/op"]
	if !ok {
		t.Skip("baseline has no Engine allocs/op entry")
	}

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
		{name: "ppe-copy-2t", limit: 1.5, run: func(tb testing.TB) *cell.System {
			sys := cell.New(cell.DefaultConfig())
			buf := int64(sys.PPE.Config().L2Bytes) / 2
			for th := 0; th < 2; th++ {
				src, dst := sys.Alloc(buf, 128), sys.Alloc(buf, 128)
				sys.PPE.Spawn(th, "copy", func(t *ppe.Thread) { t.StreamCopy(src, dst, buf, 8) })
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
// fills run on pooled records, so a whole run divided by its bank
// accesses must stay far below one allocation per access. Before the
// records, an SPE GET cost about 6.3 allocations per access and a PPE
// copy about 8.2; a single closure restored on the path trips this.
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
