package core

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/sim"
)

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
	if !pl.Done().Fired() {
		t.Fatal("pipeline did not complete")
	}
	got := make([]byte, volume)
	sys.Mem.RAM().Read(dst, got)
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d: got %d want %d (pipeline must move data intact)", i, got[i], payload[i])
		}
	}
	if pl.Bandwidth() <= 0 {
		t.Fatal("pipeline bandwidth must be positive")
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

func TestForEachRunParallelPath(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	p := DefaultParams()
	p.Runs = 8
	got := forEachRun(p, func(run int) float64 { return float64(run * run) })
	for r := 0; r < p.Runs; r++ {
		if got[r] != float64(r*r) {
			t.Fatalf("run %d produced %v", r, got[r])
		}
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
	// points run on one scheduler worker or several: each point owns its
	// engine, so only wall-clock time may differ.
	p := fastParams()
	p.Runs = 4
	p.BytesPerSPE = 256 << 10
	p.Chunks = []int{4096, 16384}
	p.SPESweep = []int{8}
	run := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := SPECouples(p, false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("worker count moved a sample:\nGOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v", seq.Curves, par.Curves)
	}
}

// TestFigureWatchdog: a figure point that exceeds the watchdog budget
// fails the figure with the structured diagnostic instead of panicking a
// worker goroutine.
func TestFigureWatchdog(t *testing.T) {
	p := fastParams()
	p.Runs = 1
	p.Chunks = []int{4096}
	p.Syncs = []int{0}
	base := cell.DefaultConfig()
	base.MaxCycles = 1000
	p.Base = &base
	_, err := SPEPairSync(p)
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("SPEPairSync under a 1000-cycle budget: err = %v, want a *sim.DeadlockError", err)
	}
	if !strings.Contains(err.Error(), "chunk=4096 seed=1") {
		t.Errorf("error %q does not name the failed point", err)
	}
}
