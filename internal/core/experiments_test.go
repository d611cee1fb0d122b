package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/ppe"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
)

// testSystem cold-boots a bare system on p's first layout run, for tests
// that drive kernels by hand.
func testSystem(p Params) *cell.System {
	return cell.New(pointConfig(p.Base, p.FirstSeed))
}

// fastParams keeps experiment tests quick: 2 layout samples, small
// volumes.
func fastParams() Params {
	p := DefaultParams()
	p.Runs = 2
	p.BytesPerSPE = 512 << 10
	p.PPEBytes = 1 << 20
	return p
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Runs: 0, BytesPerSPE: 1 << 20, PPEBytes: 1 << 20},
		{Runs: 1, BytesPerSPE: 1000, PPEBytes: 1 << 20}, // not multiple of 16K
		{Runs: 1, BytesPerSPE: 1 << 20, PPEBytes: 100},  // not line multiple
		{Runs: -1, BytesPerSPE: 1 << 20, PPEBytes: 1 << 20},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("case %d: bad params validated", i)
		}
	}
	if err := DefaultParams().validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if err := PaperParams().validate(); err != nil {
		t.Fatalf("paper params invalid: %v", err)
	}
}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) < 14 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	// Every figure of the evaluation must be covered.
	figures := []string{"Figure 3", "Figure 4", "Figure 6", "Figure 8",
		"Figure 10", "Figure 12", "Figure 13", "Figure 15", "Figure 16"}
	all := ""
	for _, e := range exps {
		all += e.Figure + " "
		if e.Name == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
	}
	for _, f := range figures {
		if !strings.Contains(all, strings.TrimPrefix(f, "Figure ")) {
			t.Errorf("no experiment covers %s", f)
		}
	}
	if _, err := Lookup("spe-mem-get"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestPPEBandwidthShape(t *testing.T) {
	p := fastParams()
	res, err := PPEBandwidth(p, LevelL1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 6 {
		t.Fatalf("%d curves, want 6 (3 ops x 2 thread counts)", len(res.Curves))
	}
	// Figure 3(a): the load plateau at half peak from 8 bytes up, exact
	// proportionality below.
	for _, c := range []struct {
		elem int
		want float64
	}{{1, 2.1}, {2, 4.2}, {8, 8.4}, {16, 8.4}} {
		s, ok := res.At("load 1T", c.elem)
		if !ok {
			t.Fatalf("missing load point at %d", c.elem)
		}
		if s.Mean < c.want*0.95 || s.Mean > c.want*1.05 {
			t.Errorf("L1 load %dB = %.2f, want ~%.1f", c.elem, s.Mean, c.want)
		}
	}
	// Stores stay below loads at 16 bytes.
	ld, _ := res.At("load 1T", 16)
	st, _ := res.At("store 1T", 16)
	if st.Mean >= ld.Mean {
		t.Errorf("L1 store %.2f must be below load %.2f", st.Mean, ld.Mean)
	}
}

func TestPPEMemEqualsL2Read(t *testing.T) {
	p := fastParams()
	l2, err := PPEBandwidth(p, LevelL2)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := PPEBandwidth(p, LevelMem)
	if err != nil {
		t.Fatal(err)
	}
	l2load, _ := l2.At("load 1T", 8)
	memload, _ := mem.At("load 1T", 8)
	if memload.Mean < l2load.Mean*0.85 {
		t.Errorf("Figure 6: mem read %.2f should match L2 read %.2f", memload.Mean, l2load.Mean)
	}
	l2store, _ := l2.At("store 1T", 16)
	memstore, _ := mem.At("store 1T", 16)
	if memstore.Mean >= l2store.Mean/2 {
		t.Errorf("Figure 6: mem store %.2f should be far below L2 store %.2f", memstore.Mean, l2store.Mean)
	}
}

func TestSPEMemoryShape(t *testing.T) {
	p := fastParams()
	res, err := SPEMemory(p, DMAGet, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != len(SPECounts) {
		t.Fatalf("%d curves, want %d", len(res.Curves), len(SPECounts))
	}
	one, _ := res.At("1 SPE", 16384)
	two, _ := res.At("2 SPE", 16384)
	if two.Mean < one.Mean*1.5 {
		t.Errorf("2 SPEs (%.1f) must nearly double 1 SPE (%.1f)", two.Mean, one.Mean)
	}
	// 128-byte elements degrade relative to 16 KB: per-command setup
	// (~30 cycles for 128 bytes) caps them at ~8.4 GB/s.
	small, _ := res.At("1 SPE", 128)
	if small.Mean > one.Mean*0.85 {
		t.Errorf("128B (%.1f) must degrade vs 16KB (%.1f)", small.Mean, one.Mean)
	}
}

func TestSPEMemoryListExtension(t *testing.T) {
	p := fastParams()
	res, err := SPEMemory(p, DMAGet, true)
	if err != nil {
		t.Fatal(err)
	}
	// Lists keep small-element bandwidth close to large-element.
	small, _ := res.At("1 SPE", 128)
	big, _ := res.At("1 SPE", 16384)
	if small.Mean < big.Mean*0.7 {
		t.Errorf("list GET 128B (%.1f) should stay near 16KB (%.1f)", small.Mean, big.Mean)
	}
}

func TestSPELocalStoreShape(t *testing.T) {
	res, err := SPELocalStore(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	peak, _ := res.At("load", 16)
	if peak.Mean < 33 || peak.Mean > 34 {
		t.Errorf("LS 16B load = %.2f, want 33.6 peak", peak.Mean)
	}
	small, _ := res.At("load", 1)
	if small.Mean >= peak.Mean {
		t.Error("narrow LS accesses must be slower than quadword")
	}
}

func TestSPEPairDistanceSmallVariation(t *testing.T) {
	p := fastParams()
	p.Runs = 3
	res, err := SPEPairDistance(p)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curve("16KB elements")
	if c == nil || len(c.Points) != 7 {
		t.Fatal("expected 7 partner points")
	}
	// §4.2.3: with a single active pair there are no conflicts; variation
	// across partners/layouts stays small (the paper: under 2 GB/s).
	min, max := 1e9, 0.0
	for _, pt := range c.Points {
		if pt.Summary.Mean < min {
			min = pt.Summary.Mean
		}
		if pt.Summary.Mean > max {
			max = pt.Summary.Mean
		}
	}
	if max-min > 2 {
		t.Errorf("pair distance variation %.2f GB/s, paper says under 2", max-min)
	}
	if min < 30 {
		t.Errorf("single pair min %.2f GB/s, want near peak", min)
	}
}

func TestStreamingMonotone(t *testing.T) {
	p := fastParams()
	res, err := Streaming(p)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := res.At("aggregate", 1)
	two, _ := res.At("aggregate", 2)
	four, _ := res.At("aggregate", 4)
	if !(one.Mean < two.Mean && two.Mean < four.Mean) {
		t.Errorf("streaming should scale with parallel streams: %.1f %.1f %.1f",
			one.Mean, two.Mean, four.Mean)
	}
}

func TestResultAccessors(t *testing.T) {
	res, err := SPELocalStore(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve("load") == nil {
		t.Fatal("missing load curve")
	}
	if res.Curve("bogus") != nil {
		t.Fatal("bogus curve must be nil")
	}
	if _, ok := res.At("load", 999); ok {
		t.Fatal("bogus x must not resolve")
	}
}

func TestPipelineMovesData(t *testing.T) {
	sys := cell.New(cell.DefaultConfig())
	const volume = 128 << 10
	src := sys.Alloc(volume, 128)
	dst := sys.Alloc(volume, 128)
	payload := make([]byte, volume)
	for i := range payload {
		payload[i] = byte(i*11 + 5)
	}
	sys.Mem.RAM().Write(src, payload)
	pl := NewPipeline(sys, 0, 4, src, dst, volume)
	pl.Start()
	sys.Run()
	if pl.EndTime() == 0 {
		t.Fatal("pipeline did not complete")
	}
	got := make([]byte, volume)
	sys.Mem.RAM().Read(dst, got)
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d: got %d want %d (pipeline must move data intact)", i, got[i], payload[i])
		}
	}
	if pl.EndTime() <= 0 {
		t.Fatal("pipeline must end after cycle 0")
	}
}

func TestPipelineSingleStage(t *testing.T) {
	sys := cell.New(cell.DefaultConfig())
	const volume = 64 << 10
	src := sys.Alloc(volume, 128)
	dst := sys.Alloc(volume, 128)
	sys.Mem.RAM().Write(src, []byte("single stage pipeline"))
	pl := NewPipeline(sys, 3, 1, src, dst, volume)
	pl.Start()
	sys.Run()
	got := make([]byte, 21)
	sys.Mem.RAM().Read(dst, got)
	if string(got) != "single stage pipeline" {
		t.Fatalf("dst holds %q", got)
	}
}

func TestPipelineBadGeometryPanics(t *testing.T) {
	sys := cell.New(cell.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pipeline should panic")
		}
	}()
	NewPipeline(sys, 6, 4, 0, 0, 16384)
}

func TestFullExperimentFunctions(t *testing.T) {
	// Exercise the complete experiment entry points (sweep structure,
	// labels, x axes) at minimum volume.
	p := fastParams()
	p.Runs = 1
	p.BytesPerSPE = 128 << 10

	sync, err := SPEPairSync(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sync.Curves) != len(SyncIntervals) {
		t.Fatalf("pair-sync has %d curves, want %d", len(sync.Curves), len(SyncIntervals))
	}
	if s, ok := sync.At("all", 16384); !ok || s.Mean < 25 {
		t.Fatalf("pair-sync 'all' @16KB = %+v", s)
	}

	couples, err := SPECouples(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(couples.Curves) != 3 {
		t.Fatalf("couples has %d curves, want 3", len(couples.Curves))
	}

	cycle, err := SPECycle(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := cycle.At("2 SPEs", 128); !ok || s.Mean < 25 {
		t.Fatalf("cycle list @128B should stay near peak, got %+v", s)
	}
}

// TestKernelFigureHarness pins the coroutine-kernel figure path on a
// synthetic figure: samples land in (curve, x, run) order whichever
// scheduler worker ran them, the first failed measurement in that order
// fails the figure with an error naming its curve, x (as chunk) and
// seed, a panic is contained to an error wrapping its value, and every
// carcass goes back to the spe buffer pool.
func TestKernelFigureHarness(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	p := DefaultParams()
	p.Runs = 3
	labels, xs := []string{"a", "b"}, []int{10, 20}
	// runOf recovers the layout run a measurement booted on.
	runOf := func(sys *cell.System) int {
		for r := 0; r < p.Runs; r++ {
			if reflect.DeepEqual(sys.Layout(), cell.RandomLayout(p.FirstSeed+int64(r))) {
				return r
			}
		}
		t.Errorf("layout %v is no run's", sys.Layout())
		return -1
	}
	before := spe.LiveLocalStores()
	synthetic := func() *Result { return &Result{Name: "synthetic"} }
	res, err := p.kernelFigure(synthetic(), p.Runs, labels, xs, func(c, x int, sys *cell.System) func() float64 {
		run := runOf(sys)
		return func() float64 { return float64(1000*c + x + run) }
	})
	if err != nil {
		t.Fatal(err)
	}
	for c, curve := range res.Curves {
		if curve.Label != labels[c] {
			t.Errorf("curve %d labelled %q, want %q", c, curve.Label, labels[c])
		}
		for j, pt := range curve.Points {
			want := []float64{float64(1000*c + xs[j]), float64(1000*c + xs[j] + 1), float64(1000*c + xs[j] + 2)}
			if pt.X != xs[j] || !reflect.DeepEqual(pt.Samples, want) {
				t.Errorf("curve %q point %d = x %d samples %v, want x %d samples %v", curve.Label, j, pt.X, pt.Samples, xs[j], want)
			}
		}
	}

	// Run 1 of ("b", 20) outlives a 1000-cycle budget; run 2 of ("a", 10)
	// panics with an error value inside its install.
	base := cell.DefaultConfig()
	base.MaxCycles = 1000
	p.Base = &base
	boom := errors.New("boom")
	failing := func(panicAt, wedgeAt int) func(c, x int, sys *cell.System) func() float64 {
		return func(c, x int, sys *cell.System) func() float64 {
			switch run := runOf(sys); {
			case c == 0 && x == 10 && run == panicAt:
				panic(boom)
			case c == 1 && x == 20 && run == wedgeAt:
				sys.SPEs[0].Run("slow", func(ctx *spe.Context) { ctx.Wait(5000) })
			}
			return func() float64 { return 0 }
		}
	}
	_, err = p.kernelFigure(synthetic(), p.Runs, labels, xs, failing(-1, 1))
	var de *sim.DeadlockError
	if !errors.As(err, &de) || !strings.Contains(err.Error(), `"b" point chunk=20 seed=2`) {
		t.Errorf("wedged measurement: err = %v, want a *sim.DeadlockError naming it", err)
	}
	_, err = p.kernelFigure(synthetic(), p.Runs, labels, xs, failing(2, 1))
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), `"a" point chunk=10 seed=3`) || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panicking measurement: err = %v, want the first failure, the contained panic", err)
	}
	if n := spe.LiveLocalStores() - before; n != 0 {
		t.Errorf("%d local stores outlived the harness", n)
	}
}

// TestKernelPointsCarryPerf: a coroutine-kernel point rolls up the
// counters of the traffic its kernels made, as a scenario point does.
func TestKernelPointsCarryPerf(t *testing.T) {
	p := tinyParams()
	results, err := p.Sweep(
		SweepSpec{Chunks: []int{2}, kernel: func(n int, sys *cell.System) func() float64 {
			return p.streamKernel(sys, StreamCopy, n)
		}},
		SweepSpec{Chunks: []int{16}, kernel: func(elem int, sys *cell.System) func() float64 {
			return ppeKernel(sys, ppe.Load, 1, elem, p.bufBytes(LevelL1))
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	stream, l1 := results[0][0], results[1][0]
	if stream.Perf == nil || stream.Perf.EIBCommands == 0 || stream.Commands == 0 || stream.GBps <= 0 {
		t.Errorf("2-SPE stream copy point: perf %+v, commands %d, GB/s %g; want MFC traffic counted", stream.Perf, stream.Commands, stream.GBps)
	}
	if l1.Perf == nil || l1.Perf.PPEFills == 0 || l1.GBps <= 0 {
		t.Errorf("ppe-l1 load point: perf %+v, GB/s %g; want PPE fills counted", l1.Perf, l1.GBps)
	}
}

func TestDMAOpStrings(t *testing.T) {
	if DMAGet.String() != "GET" || DMAPut.String() != "PUT" || DMACopy.String() != "GET+PUT" {
		t.Fatal("DMAOp strings wrong")
	}
	if KernelDot.String() != "dot" || StreamTriad.String() != "triad" {
		t.Fatal("kernel strings wrong")
	}
	for _, l := range []CacheLevel{LevelL1, LevelL2, LevelMem} {
		if l.String() == "?" {
			t.Fatal("cache level string missing")
		}
	}
}

func TestParallelHarnessDeterministic(t *testing.T) {
	// The figure harness must produce identical numbers whether its grid
	// points run on one scheduler worker or several, and whichever arena
	// carcass a coroutine-kernel measurement lands on: each point owns
	// its engine, so only wall-clock time may differ.
	p := fastParams()
	p.Runs = 4
	p.BytesPerSPE = 256 << 10
	p.PPEBytes = 64 << 10
	p.Chunks = []int{4096, 16384}
	p.SPESweep = []int{8}
	p.Elems = []int{4, 16}
	for _, name := range []string{"spe-couples", "ppe-l1", "streaming"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(procs int) *Result {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			res, err := e.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		seq, par := run(1), run(4)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: worker count moved a sample:\nGOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v", name, seq.Curves, par.Curves)
		}
	}
}

// tinyParams is the smallest grid every registry experiment accepts.
func tinyParams() Params {
	p := DefaultParams()
	p.Runs = 1
	p.BytesPerSPE = 64 << 10
	p.PPEBytes = 16 << 10
	p.Chunks = []int{4096}
	p.Elems = []int{16}
	p.SPESweep = []int{2}
	p.Syncs = []int{0}
	return p
}

// TestFigureWatchdog: every experiment of the registry, sweep-backed or
// coroutine-kernel, finishes under the watchdog, so a budget overrun
// fails the figure with the structured diagnostic instead of being
// ignored or panicking a worker goroutine.
func TestFigureWatchdog(t *testing.T) {
	p := tinyParams()
	base := cell.DefaultConfig()
	base.MaxCycles = 1000
	p.Base = &base
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked under a 1000-cycle budget: %v", r)
					}
				}()
				_, err = e.Run(p)
			}()
			var de *sim.DeadlockError
			if !errors.As(err, &de) {
				t.Fatalf("under a 1000-cycle budget: err = %v, want a *sim.DeadlockError", err)
			}
			if !strings.Contains(err.Error(), "cycle budget 1000 exceeded") {
				t.Errorf("error %q does not report the budget", err)
			}
		})
	}
	p.Runs = 1
	p.Chunks = []int{4096}
	_, err := SPEPairSync(p)
	if !strings.Contains(fmt.Sprint(err), "chunk=4096 seed=1") {
		t.Errorf("error %q does not name the failed point", err)
	}
}

// TestExperimentsReleaseLocalStores: every experiment hands the local
// stores of every system it booted back to the spe buffer pool, so a
// long-lived caller (perfbench, cellserve) running figures back to back
// does not grow.
func TestExperimentsReleaseLocalStores(t *testing.T) {
	p := tinyParams()
	for _, e := range Experiments() {
		before := spe.LiveLocalStores()
		if _, err := e.Run(p); err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if n := spe.LiveLocalStores() - before; n != 0 {
			t.Errorf("%s: %d local stores outlived the experiment", e.Name, n)
		}
	}
}
