package cell

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// coldRun boots, installs and runs one grid point from scratch, the
// reference the clone path must match bit-for-bit.
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

// runClone runs one cloned system to completion.
func runClone(t *testing.T, sys *System) {
	t.Helper()
	if err := sys.RunChecked(0); err != nil {
		t.Fatalf("clone run: %v", err)
	}
}

// TestSnapshotCloneMatchesCold is the tentpole differential: for every
// snapshot-capable canonical scenario, a system stamped from a recycled
// carcass must be observationally identical to a cold boot — including
// when the carcass previously ran a *different* grid point (other chunk,
// other layout), which is exactly the sweep's reuse pattern.
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

			// First clone cold-boots (arena empty); retire it so the next
			// clones are stamped from a used carcass — the path under test.
			warmup, _, err := snap.Clone()
			if err != nil {
				t.Fatalf("clone: %v", err)
			}
			runClone(t, warmup)
			snap.Retire(warmup)
			if snap.ArenaLen() != 1 {
				t.Fatalf("arena holds %d carcasses, want 1", snap.ArenaLen())
			}

			// Same grid point from the recycled carcass.
			same, _, err := snap.Clone()
			if err != nil {
				t.Fatalf("clone from carcass: %v", err)
			}
			runClone(t, same)
			assertIdentical(t, "same-point", coldRun(t, DefaultConfig(), sc), same)
			snap.Retire(same)

			// A different grid point — new chunk and a randomized layout —
			// from a carcass that ran the old one.
			cfg := snap.Config()
			cfg.Layout = RandomLayout(7)
			chunk := sc.Chunk / 2
			diff, _, err := snap.CloneFor(cfg, chunk)
			if err != nil {
				t.Fatalf("clone variant: %v", err)
			}
			runClone(t, diff)
			refCfg := DefaultConfig()
			refCfg.Layout = RandomLayout(7)
			refSc := sc
			refSc.Chunk = chunk
			assertIdentical(t, "variant-point", coldRun(t, refCfg, refSc), diff)
		})
	}
}

// TestSnapshotGates pins the refusals: snapshots are only valid at the
// install boundary of a Snapshottable scenario. For every stream scenario
// kind the predicate must agree with whether Snapshot succeeds after
// Install, since the scheduler trusts it to skip booting a template (the
// workload kinds are covered by TestWorkloadsNotSnapshottable).
func TestSnapshotGates(t *testing.T) {
	// No scenario installed.
	if _, err := New(DefaultConfig()).Snapshot(); !errors.Is(err, ErrNotSnapshottable) {
		t.Errorf("bare system: got %v, want ErrNotSnapshottable", err)
	}
	for _, sc := range []Scenario{
		{Kind: "pair", Chunk: 4096, Volume: 64 << 10},
		{Kind: "couples", SPEs: 4, Chunk: 4096, Volume: 64 << 10},
		{Kind: "cycle", SPEs: 4, Chunk: 4096, Volume: 64 << 10},
		{Kind: "pair", Chunk: 4096, Volume: 64 << 10, List: true},
		{Kind: "couples", SPEs: 4, Chunk: 4096, Volume: 64 << 10, List: true},
		{Kind: "cycle", SPEs: 4, Chunk: 4096, Volume: 64 << 10, List: true},
		{Kind: "mem", SPEs: 2, Chunk: 4096, Volume: 64 << 10, Op: "get"},
		{Kind: "mem", SPEs: 2, Chunk: 4096, Volume: 64 << 10, Op: "put", List: true},
		{Kind: "wedge", SPEs: 2},
		Scenario{Kind: "pair", Chunk: 4096, Volume: 64 << 10}.WithPairFigure(PairFigure{Remote: true}),
	} {
		label := fmt.Sprintf("%s-list=%v-remote=%v", sc.Kind, sc.List, sc.figure.Remote)
		sys := New(DefaultConfig())
		if _, err := sc.Install(sys); err != nil {
			t.Fatalf("%s: install: %v", label, err)
		}
		_, err := sys.Snapshot()
		if err != nil && !errors.Is(err, ErrNotSnapshottable) {
			t.Errorf("%s: snapshot err = %v, want nil or ErrNotSnapshottable", label, err)
		}
		if want := sc.Snapshottable(); (err == nil) != want {
			t.Errorf("%s: Snapshottable() = %v but Snapshot err = %v", label, want, err)
		}
		sys.Release()
	}
	// A cross-chip pair is cold path: no template is worth booting.
	if (Scenario{Kind: "pair", Chunk: 4096, Volume: 64 << 10}).WithPairFigure(PairFigure{Remote: true}).Snapshottable() {
		t.Error("remote pair: Snapshottable() = true, want false")
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

// TestSnapshotCloneConcurrent clones one snapshot from many goroutines at
// once (run under -race in CI): the arena must serialize hand-outs and
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
				sys, _, err := snap.Clone()
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
