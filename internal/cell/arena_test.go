package cell

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cellbe/internal/fault"
	"cellbe/internal/ppe"
	"cellbe/internal/spe"
)

// coldRun boots, installs and runs one grid point from scratch, the
// reference the arena path must match bit-for-bit.
func coldRun(t *testing.T, cfg Config, sc Scenario) *System {
	t.Helper()
	sys := New(cfg)
	if _, err := sc.Install(sys); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := sys.RunChecked(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	return sys
}

// runErr runs an installed system to completion and returns its failure
// text, "" for a clean run: the wedge scenario's deadlock diagnostic is
// part of what a recycled carcass must reproduce.
func runErr(sys *System) string {
	if err := sys.RunChecked(0); err != nil {
		return err.Error()
	}
	return ""
}

// compareRun runs a cold reference and a recycled system of one grid
// point and pins their failure text (wedge's deadlock diagnostic) and
// every observable.
func compareRun(t *testing.T, label string, cfg Config, sc Scenario, warm *System) {
	t.Helper()
	cold := New(cfg)
	if _, err := sc.Install(cold); err != nil {
		t.Fatalf("%s: cold install: %v", label, err)
	}
	c, w := runErr(cold), runErr(warm)
	if c != w {
		t.Errorf("%s: run outcome diverges:\ncold %q\nwarm %q", label, c, w)
	}
	if sc.Kind != "wedge" && c != "" {
		t.Errorf("%s: run failed: %s", label, c)
	}
	assertIdentical(t, label, cold, warm)
	cold.Release()
}

// assertIdentical pins every observable of a finished system against the
// cold reference: cycle count, event totals, EIB/MFC statistics, the
// occupancy histograms and the full perf-counter block. Both systems count
// into their own blocks, so a recycled carcass that carried counts from
// its previous point into this one fails here.
func assertIdentical(t *testing.T, label string, cold, warm *System) {
	t.Helper()
	if c, w := cold.Eng.Now(), warm.Eng.Now(); c != w {
		t.Errorf("%s: cycles: cold %d, warm %d", label, c, w)
	}
	if c, w := cold.Eng.Fired(), warm.Eng.Fired(); c != w {
		t.Errorf("%s: events fired: cold %d, warm %d", label, c, w)
	}
	if c, w := cold.Eng.Scheduled(), warm.Eng.Scheduled(); c != w {
		t.Errorf("%s: events scheduled: cold %d, warm %d", label, c, w)
	}
	if c, w := cold.Bus.Stats(), warm.Bus.Stats(); c != w {
		t.Errorf("%s: EIB stats diverge:\ncold %+v\nwarm %+v", label, c, w)
	}
	for i := range cold.SPEs {
		if c, w := cold.SPEs[i].MFC().Stats(), warm.SPEs[i].MFC().Stats(); c != w {
			t.Errorf("%s: SPE%d MFC stats: cold %+v, warm %+v", label, i, c, w)
		}
		if c, w := cold.SPEs[i].MFC().OccupancyHist(), warm.SPEs[i].MFC().OccupancyHist(); !reflect.DeepEqual(c, w) {
			t.Errorf("%s: SPE%d occupancy histogram: cold %v, warm %v", label, i, c, w)
		}
	}
	if !reflect.DeepEqual(cold.Perf(), warm.Perf()) {
		t.Errorf("%s: perf counters diverge:\ncold %+v\nwarm %+v", label, cold.Perf(), warm.Perf())
	}
}

// TestSnapshotCloneMatchesCold is the differential for every scenario
// kind: a system stamped from a recycled carcass must be observationally
// identical to a cold boot — including when the carcass previously ran a
// *different* grid point (other chunk, other layout), which is exactly
// the sweep's reuse pattern. Wedge is compared by its deadlock
// diagnostic text.
func TestSnapshotCloneMatchesCold(t *testing.T) {
	pair := Scenario{Kind: "pair", Chunk: 1024, Volume: 256 << 10}
	scenarios := []struct {
		name string
		sc   Scenario
	}{
		{"pair-1024", pair},
		{"pair-16384", Scenario{Kind: "pair", Chunk: 16384, Volume: 256 << 10}},
		{"pair-1024-sync4", pair.WithPairFigure(PairFigure{SyncEvery: 4})},
		{"pair-1024-partner5", pair.WithPairFigure(PairFigure{Partner: 5})},
		{"couples-4096", Scenario{Kind: "couples", SPEs: 4, Chunk: 4096, Volume: 128 << 10}},
		{"cycle-2048", Scenario{Kind: "cycle", SPEs: 8, Chunk: 2048, Volume: 128 << 10}},
		{"pair-list-1024", Scenario{Kind: "pair", Chunk: 1024, Volume: 128 << 10, List: true}},
		{"couples-list-512", Scenario{Kind: "couples", SPEs: 4, Chunk: 512, Volume: 64 << 10, List: true}},
		{"cycle-list-2048", Scenario{Kind: "cycle", SPEs: 8, Chunk: 2048, Volume: 64 << 10, List: true}},
		{"mem-get-4096", Scenario{Kind: "mem", SPEs: 4, Chunk: 4096, Volume: 64 << 10, Op: "get"}},
		{"mem-put-list-2048", Scenario{Kind: "mem", SPEs: 2, Chunk: 2048, Volume: 64 << 10, Op: "put", List: true}},
		{"mem-copy-4096", Scenario{Kind: "mem", SPEs: 8, Chunk: 4096, Volume: 64 << 10, Op: "copy"}},
		{"pair-remote-4096", Scenario{Kind: "pair", Chunk: 4096, Volume: 64 << 10}.WithPairFigure(PairFigure{Remote: true})},
		{"gups-64", Scenario{Kind: "gups", SPEs: 4, Chunk: 64, Volume: 16 << 10, Op: "both"}},
		{"qcd-1024", Scenario{Kind: "qcd", SPEs: 4, Chunk: 1024, Volume: 32 << 10}},
		{"md-512", Scenario{Kind: "md", SPEs: 4, Chunk: 512, Volume: 32 << 10}},
		{"stream-triad-4096", Scenario{Kind: "stream", SPEs: 4, Chunk: 4096, Volume: 32 << 10, Op: "triad"}},
		{"pattern-256", Scenario{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{{Access: "seq", Op: "get", Bytes: 4096}}, Region: 4096,
		}}},
		{"wedge", Scenario{Kind: "wedge", SPEs: 2}},
	}
	for _, tc := range scenarios {
		sc := tc.sc
		t.Run(tc.name, func(t *testing.T) {
			tpl := New(DefaultConfig())
			if _, err := sc.Install(tpl); err != nil {
				t.Fatalf("install template: %v", err)
			}
			snap, err := tpl.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			// The unrun template is the first carcass.
			snap.Retire(tpl)

			// Same grid point from the recycled carcass.
			same, _, err := snap.CloneFor(DefaultConfig(), sc.Chunk)
			if err != nil {
				t.Fatalf("clone from carcass: %v", err)
			}
			if same != tpl {
				t.Fatal("clone did not stamp the retired template")
			}
			compareRun(t, "same-point", DefaultConfig(), sc, same)
			snap.Retire(same)

			// A different grid point — new chunk and a randomized layout —
			// from a carcass that ran the old one.
			cfg := DefaultConfig()
			cfg.Layout = RandomLayout(7)
			refSc := sc
			refSc.Chunk = sc.Chunk / 2
			diff, _, err := snap.CloneFor(cfg.Clone(), refSc.Chunk)
			if err != nil {
				t.Fatalf("clone variant: %v", err)
			}
			compareRun(t, "variant-point", cfg, refSc, diff)
			snap.Retire(diff)
		})
	}
}

// installKernels spawns a coroutine-kernel run by hand on a bare system,
// the way the experiment harness does: a PPE copy on both SMT threads and
// an SPE kernel streaming a buffer through its local store and back out.
func installKernels(sys *System) {
	const n = 16 << 10
	for th := 0; th < 2; th++ {
		src, dst := sys.Alloc(n, 128), sys.Alloc(n, 128)
		sys.PPE.Spawn(th, fmt.Sprintf("ppe%d", th), func(t *ppe.Thread) { t.StreamCopy(src, dst, n, 16) })
	}
	in, out := sys.Alloc(n, 128), sys.Alloc(n, 128)
	sys.SPEs[3].Run("kernel", func(ctx *spe.Context) {
		ctx.Get(0, in, n, 0)
		ctx.WaitTag(0)
		ctx.Put(0, out, n, 1)
		ctx.WaitTag(1)
	})
}

// TestArenaMixedHistory ping-pongs one carcass across scenario kinds,
// hand-installed coroutine kernels and machine configurations, the reuse
// pattern of a scheduler-wide arena that serves every job and of the
// experiment harness's per-figure arena: each boot must match a cold boot
// of its own point whatever the carcass ran before — more SPEs, a remote
// chip, PPE threads, coroutine kernels, fault injection, OS noise,
// another ring count.
func TestArenaMixedHistory(t *testing.T) {
	odd := DefaultConfig()
	odd.EIB.RingsPerDirection = 1
	odd.Faults = fault.Config{MFCRetryRate: 0.02, XDRStallRate: 0.02, EIBSlowRate: 0.02, DoneDelayRate: 0.02}
	odd.FaultSeed = 11
	odd.NoiseEvery, odd.NoiseCycles = 20000, 500
	odd.Layout = RandomLayout(5)
	configs := []Config{DefaultConfig(), odd}
	scenarios := []Scenario{
		{Kind: "mem", SPEs: 8, Chunk: 4096, Volume: 32 << 10, Op: "copy"},
		{Kind: "gups", SPEs: 4, Chunk: 64, Volume: 8 << 10, Op: "both"},
		{Kind: "cycle", SPEs: 8, Chunk: 1024, Volume: 32 << 10, List: true},
		Scenario{Kind: "pair", Chunk: 4096, Volume: 32 << 10}.WithPairFigure(PairFigure{Remote: true}),
		{Kind: "qcd", SPEs: 4, Chunk: 1024, Volume: 16 << 10},
	}
	var a Arena
	defer a.Release()
	var carcass *System
	for round := 0; round < 2; round++ {
		// A bare boot with hand-installed kernels: a 2-thread PPE copy
		// and an SPE coroutine kernel.
		cfg := configs[round%len(configs)]
		label := fmt.Sprintf("round %d kernels", round)
		sys, recycled := a.New(cfg.Clone())
		if recycled != (carcass != nil) || carcass != nil && sys != carcass {
			t.Fatalf("%s: New did not reuse the one carcass", label)
		}
		carcass = sys
		cold := New(cfg.Clone())
		installKernels(cold)
		installKernels(sys)
		if c, w := runErr(cold), runErr(sys); c != "" || w != "" {
			t.Fatalf("%s: run failed: cold %q, warm %q", label, c, w)
		}
		assertIdentical(t, label, cold, sys)
		cold.Release()
		a.Retire(sys)
		for i, sc := range scenarios {
			cfg := configs[(i+round)%len(configs)]
			label := fmt.Sprintf("round %d %s/%d", round, sc.Kind, sc.SPEs)
			sys, _, err := a.Boot(cfg.Clone(), sc)
			if err != nil {
				t.Fatalf("%s: boot: %v", label, err)
			}
			if carcass != nil && sys != carcass {
				t.Fatalf("%s: boot did not reuse the one carcass", label)
			}
			carcass = sys
			compareRun(t, label, cfg.Clone(), sc, sys)
			a.Retire(sys)
		}
	}
	if got, want := a.Recycled(), int64(2*len(scenarios)); got != want {
		t.Errorf("Recycled() = %d, want %d", got, want)
	}
}

// TestArenaRAMAfterGUPS: the carcass keeps its RAM storage across boots,
// so a carcass whose gups point scattered non-zero lines over the table
// must boot mem put and get points that match a fresh New bit for bit:
// install results, statistics, counters, every local store and every
// RAM byte the gups table spans, which holds both points' buffers.
func TestArenaRAMAfterGUPS(t *testing.T) {
	var a Arena
	defer a.Release()
	gups := Scenario{Kind: "gups", SPEs: 8, Chunk: 8, Volume: 16 << 10, Op: "both"}
	sys, _, err := a.Boot(DefaultConfig(), gups)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range sys.SPEs {
		for i, ls := 0, sp.LS(); i < len(ls); i++ {
			ls[i] = byte(i%251) | 1 // the scatters write non-zero bytes
		}
	}
	if err := sys.RunChecked(0); err != nil {
		t.Fatal(err)
	}
	span := make([]byte, gupsRegionBytes)
	sys.Mem.RAM().Read(0, span)
	if bytes.Count(span, []byte{0}) == len(span) {
		t.Fatal("gups left the table all zero: the carcass carries nothing to leak")
	}
	a.Retire(sys)
	for _, op := range []string{"put", "get"} {
		sc := Scenario{Kind: "mem", SPEs: 4, Chunk: 4096, Volume: 64 << 10, Op: op}
		warm, wantN, err := a.Boot(DefaultConfig(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if warm != sys {
			t.Fatalf("mem %s: boot did not reuse the gups carcass", op)
		}
		cold := New(DefaultConfig())
		coldN, err := sc.Install(cold)
		if err != nil {
			t.Fatal(err)
		}
		if c, w := runErr(cold), runErr(warm); c != "" || w != "" || coldN != wantN {
			t.Fatalf("mem %s: cold %q (%d B), warm %q (%d B)", op, c, coldN, w, wantN)
		}
		assertIdentical(t, "mem "+op, cold, warm)
		for i := range cold.SPEs {
			if !bytes.Equal(cold.SPEs[i].LS(), warm.SPEs[i].LS()) {
				t.Errorf("mem %s: SPE%d local store differs from a fresh system", op, i)
			}
		}
		want, got := make([]byte, gupsRegionBytes), make([]byte, gupsRegionBytes)
		cold.Mem.RAM().Read(0, want)
		warm.Mem.RAM().Read(0, got)
		if !bytes.Equal(want, got) {
			t.Errorf("mem %s: RAM differs from a fresh system's", op)
		}
		cold.Release()
		a.Retire(warm)
	}
}

// TestArenaBootPanicKeepsCarcass: a boot that panics on a config New
// would refuse hands its carcass back instead of dropping it with its
// local stores, and the next boot stamps that carcass.
func TestArenaBootPanicKeepsCarcass(t *testing.T) {
	sc := Scenario{Kind: "pair", Chunk: 4096, Volume: 16 << 10}
	var a Arena
	defer a.Release()
	sys, _, err := a.Boot(DefaultConfig(), sc)
	if err != nil {
		t.Fatal(err)
	}
	a.Retire(sys)
	bad := DefaultConfig()
	bad.LSBase = 0 // overlaps RAM
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("boot on an invalid config did not panic")
			}
		}()
		a.Boot(bad, sc)
	}()
	again, _, err := a.Boot(DefaultConfig(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if again != sys {
		t.Fatal("the carcass was dropped by the panicking boot")
	}
	compareRun(t, "after panic", DefaultConfig(), sc, again)
	a.Retire(again)
}

// TestSnapshotGates pins the refusals: snapshots are only valid at the
// install boundary — an installed system that has not run.
func TestSnapshotGates(t *testing.T) {
	// No scenario installed.
	if _, err := New(DefaultConfig()).Snapshot(); !errors.Is(err, ErrNotSnapshottable) {
		t.Errorf("bare system: got %v, want ErrNotSnapshottable", err)
	}
	// Already run.
	sys := New(DefaultConfig())
	if _, err := (Scenario{Kind: "pair", Chunk: 4096, Volume: 64 << 10}).Install(sys); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := sys.RunChecked(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := sys.Snapshot(); !errors.Is(err, ErrNotSnapshottable) {
		t.Errorf("finished system: got %v, want ErrNotSnapshottable", err)
	}
}

// TestSnapshotCloneConcurrent clones one snapshot from many goroutines
// at once (run under -race in CI): its arena must serialize hand-outs and
// every concurrently produced result must equal the cold reference.
func TestSnapshotCloneConcurrent(t *testing.T) {
	sc := Scenario{Kind: "cycle", SPEs: 8, Chunk: 4096, Volume: 64 << 10}
	tpl := New(DefaultConfig())
	if _, err := sc.Install(tpl); err != nil {
		t.Fatalf("install: %v", err)
	}
	snap, err := tpl.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	ref := coldRun(t, DefaultConfig(), sc)

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sys, _, err := snap.CloneFor(DefaultConfig(), sc.Chunk)
				if err != nil {
					errs <- err
					return
				}
				if err := sys.RunChecked(0); err != nil {
					errs <- err
					return
				}
				if sys.Eng.Now() != ref.Eng.Now() || sys.Bus.Stats() != ref.Bus.Stats() {
					errs <- fmt.Errorf("concurrent clone diverged: %d cycles vs %d", sys.Eng.Now(), ref.Eng.Now())
					return
				}
				snap.Retire(sys)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
