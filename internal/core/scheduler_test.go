package core

import (
	"context"
	"encoding/hex"
	"errors"
	"sort"
	"sync"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/fault"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
)

// drainJob collects a job's streamed results and sorts them into the
// canonical (chunk, seed) order.
func drainJob(j *Job) []PointResult {
	var out []PointResult
	for pr := range j.Results() {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Chunk != out[k].Chunk {
			return out[i].Chunk < out[k].Chunk
		}
		return out[i].Seed < out[k].Seed
	})
	return out
}

// TestSchedulerMemoizes is the content-addressed cache contract:
// resubmitting an identical sweep must return bit-identical results
// without a single new simulation, and the cache counters must prove it.
func TestSchedulerMemoizes(t *testing.T) {
	s := NewScheduler(SchedOptions{Workers: 4, CachePoints: 64})
	defer s.Close()
	spec := sweepSpec(0)

	j1, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	first := drainJob(j1)
	st := s.CacheStats()
	if st.Simulations != int64(len(first)) || st.Hits != 0 || st.Entries != len(first) {
		t.Fatalf("after first run: stats %+v, want %d simulations / 0 hits / %d entries",
			st, len(first), len(first))
	}

	j2, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second := drainJob(j2)
	st = s.CacheStats()
	if st.Simulations != int64(len(first)) {
		t.Fatalf("resubmission re-simulated: %d simulations, want %d (all memoized)",
			st.Simulations, len(first))
	}
	if st.Hits != int64(len(first)) {
		t.Fatalf("resubmission hit the cache %d times, want %d", st.Hits, len(first))
	}
	if len(second) != len(first) {
		t.Fatalf("got %d memoized results, want %d", len(second), len(first))
	}
	for i := range first {
		a, b := first[i], second[i]
		if !b.Cached {
			t.Errorf("point chunk=%d seed=%d: resubmitted result not marked Cached", b.Chunk, b.Seed)
		}
		if a.Chunk != b.Chunk || a.Seed != b.Seed || a.Cycles != b.Cycles ||
			a.GBps != b.GBps || a.Transfers != b.Transfers {
			t.Errorf("memoized point %d diverged: %+v vs %+v", i, a, b)
		}
	}

	// The memoized results must also agree with a cache-free RunSweep.
	ref, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i].Cycles != second[i].Cycles || ref[i].GBps != second[i].GBps {
			t.Errorf("cached point %d disagrees with uncached sweep: %+v vs %+v",
				i, second[i].SweepResult, ref[i])
		}
	}
}

// TestSchedulerQueueBound: Submit must reject with ErrQueueFull once
// MaxJobs jobs are unfinished, and admit again after one drains.
func TestSchedulerQueueBound(t *testing.T) {
	gate := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(gate) })
	defer releaseAll()
	entered := make(chan struct{}, 16)
	s := NewScheduler(SchedOptions{
		Workers: 1,
		MaxJobs: 1,
		BeforePoint: func(int, int64) {
			entered <- struct{}{}
			<-gate
		},
	})
	defer s.Close()

	spec := sweepSpec(1)
	spec.Chunks = spec.Chunks[:1]
	spec.Seeds = spec.Seeds[:1]
	j1, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the job's one point is on the worker: the slot is held

	if _, err := s.Submit(context.Background(), spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second Submit with a full queue: err = %v, want ErrQueueFull", err)
	}

	releaseAll()
	if got := drainJob(j1); len(got) != 1 {
		t.Fatalf("first job delivered %d points, want 1", len(got))
	}
	j2, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("Submit after the queue drained: %v", err)
	}
	drainJob(j2)
}

// TestSchedulerCancellation: cancelling a job mid-sweep must stop workers
// from starting its remaining points and still close the results stream
// with consistent accounting.
func TestSchedulerCancellation(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	s := NewScheduler(SchedOptions{
		Workers: 1,
		BeforePoint: func(int, int64) {
			entered <- struct{}{}
			<-gate
		},
	})
	defer s.Close()

	spec := sweepSpec(1) // 6 points, one worker: strictly sequential
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	<-entered          // point 1 at the gate
	gate <- struct{}{} // let it simulate
	<-entered          // point 2 at the gate
	j.Cancel()
	gate <- struct{}{} // release point 2: its worker must now skip it

	got := drainJob(j)
	if len(got) != 1 {
		t.Fatalf("cancelled job delivered %d points, want exactly the 1 started before Cancel", len(got))
	}
	st := j.Status()
	if st.State != JobCancelled {
		t.Fatalf("state = %q, want %q", st.State, JobCancelled)
	}
	if st.Completed != 1 || st.Skipped != st.Total-1 {
		t.Fatalf("accounting off: %+v (want completed=1, skipped=%d)", st, st.Total-1)
	}
	if sims := s.CacheStats().Simulations; sims != 1 {
		t.Fatalf("cancelled job simulated %d points, want 1", sims)
	}
}

// TestSubmitSnapshotsBaseConfig pins the Config.Clone fix: Submit
// snapshots *spec.Base synchronously, so the caller may keep mutating the
// config — its Layout slice included — while grid points run. Under
// -race this is the regression test for the shared-state hazard.
func TestSubmitSnapshotsBaseConfig(t *testing.T) {
	base := cell.DefaultConfig()
	base.Layout = cell.RandomLayout(5)
	s := NewScheduler(SchedOptions{Workers: 4})
	defer s.Close()

	spec := sweepSpec(4)
	spec.Base = &base
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the caller-owned config while the sweep runs.
	for i := 0; i < 10000; i++ {
		base.Layout[i%cell.NumSPEs] = i % cell.NumSPEs
		base.FaultSeed = int64(i)
	}
	for _, r := range drainJob(j) {
		if r.Err != nil {
			t.Fatalf("point chunk=%d seed=%d failed under base mutation: %v", r.Chunk, r.Seed, r.Err)
		}
	}
}

// TestInstrumentedSweepReleasesLSBuffers is the leak regression test for
// the arena and the Instrument retention contract: a sweep — plain, or
// with a hook that retains nothing — must give back every local-store
// buffer its points acquired once its scheduler closes, instead of
// dropping its recycled carcasses with 8 buffers each. It counts
// outstanding buffers at the spe acquire and Release sites, so the
// verdict does not depend on what sync.Pool retains.
func TestInstrumentedSweepReleasesLSBuffers(t *testing.T) {
	spec := SweepSpec{
		Scenario: "cycle",
		SPEs:     8,
		Chunks:   []int{4096},
		Seeds:    []int64{0, 1, 2, 3, 4, 5, 6, 7},
		Volume:   64 << 10,
		Workers:  1,
	}
	// outstanding runs one sweep and returns how many LS buffers it left
	// held by SPEs.
	outstanding := func(spec SweepSpec) int64 {
		before := spe.LiveLocalStores()
		if _, err := RunSweep(spec); err != nil {
			t.Fatal(err)
		}
		return spe.LiveLocalStores() - before
	}

	for _, workers := range []int{1, 3} {
		plain := spec
		plain.Workers = workers
		for i := 0; i < 3; i++ {
			if n := outstanding(plain); n != 0 {
				t.Fatalf("warm sweep (%d workers, run %d) left %d LS buffers outstanding, want 0: arena carcasses are leaking",
					workers, i, n)
			}
		}
		instrumented := spec
		instrumented.Workers = workers
		instrumented.Instrument = func(int, int64, *cell.System) bool { return false }
		for i := 0; i < 3; i++ {
			if n := outstanding(instrumented); n != 0 {
				t.Fatalf("instrumented sweep (%d workers, run %d) left %d LS buffers outstanding, want 0: LS buffers are leaking again",
					workers, i, n)
			}
		}
	}

	// The counter sees a real leak: a hook that retains every system keeps
	// all 8 points x 8 SPEs' stores, until the retained systems die.
	var kept []*cell.System
	retaining := spec
	retaining.Instrument = func(_ int, _ int64, sys *cell.System) bool {
		kept = append(kept, sys)
		return true
	}
	if n, want := outstanding(retaining), int64(len(spec.Seeds)*cell.NumSPEs); n != want {
		t.Fatalf("retaining sweep left %d LS buffers outstanding, want %d", n, want)
	}
	before := spe.LiveLocalStores()
	for _, sys := range kept {
		sys.Release()
	}
	if n := before - spe.LiveLocalStores(); n != int64(len(kept)*cell.NumSPEs) {
		t.Fatalf("releasing the %d retained systems returned %d LS buffers, want %d", len(kept), n, len(kept)*cell.NumSPEs)
	}
}

// TestSchedulerArenaBoundsLiveStores: a long-lived scheduler serving
// many one-point jobs keeps at most one carcass per worker alive, reused
// across jobs, and gives every local store back when it closes.
func TestSchedulerArenaBoundsLiveStores(t *testing.T) {
	const workers = 2
	before := spe.LiveLocalStores()
	s := NewScheduler(SchedOptions{Workers: workers})
	for i := 0; i < 20; i++ {
		j, err := s.Submit(context.Background(), SweepSpec{
			Scenario: "cycle", SPEs: 8, Chunks: []int{4096}, Seeds: []int64{int64(i)}, Volume: 16 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range drainJob(j) {
			if r.Err != nil {
				t.Fatalf("job %d: %v", i, r.Err)
			}
		}
		if n := spe.LiveLocalStores() - before; n > workers*cell.NumSPEs {
			t.Fatalf("after job %d: %d LS buffers live, want at most %d (one carcass per worker)", i, n, workers*cell.NumSPEs)
		}
	}
	if s.WarmPoints() < 20-workers {
		t.Errorf("WarmPoints() = %d of 20 one-point jobs, want carcasses reused across jobs", s.WarmPoints())
	}
	s.Close()
	if n := spe.LiveLocalStores() - before; n != 0 {
		t.Fatalf("closed scheduler left %d LS buffers outstanding, want 0", n)
	}
}

// TestWarmPointsCountsRecycledBoots: WarmPoints counts the points booted
// onto a recycled carcass — every point after the first on one worker —
// and not a boot whose install failed.
func TestWarmPointsCountsRecycledBoots(t *testing.T) {
	s := NewScheduler(SchedOptions{Workers: 1})
	defer s.Close()
	run := func(spec SweepSpec) []PointResult {
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return drainJob(j)
	}
	run(SweepSpec{Scenario: "pair", Chunks: []int{1024, 4096}, Seeds: []int64{0, 1, 2}, Volume: 16 << 10})
	if got := s.WarmPoints(); got != 5 {
		t.Fatalf("WarmPoints() = %d after 6 points on one worker, want 5", got)
	}
	// 8 SPEs x 128 MiB overflows the 512 MiB of simulated RAM at install.
	for _, r := range run(SweepSpec{Scenario: "mem", SPEs: 8, Op: "get", Chunks: []int{4096}, Seeds: []int64{0}, Volume: 128 << 20}) {
		if r.Err == nil {
			t.Fatal("oversized mem point installed")
		}
	}
	if got := s.WarmPoints(); got != 5 {
		t.Fatalf("WarmPoints() = %d after a failed install, want 5", got)
	}
}

// TestSweepSeedZeroFaultStream pins the fault-seed derivation fix: layout
// seed 0 must run under an explicit, reproducible, non-sentinel fault
// seed, and non-zero seeds must keep their established streams.
func TestSweepSeedZeroFaultStream(t *testing.T) {
	if DeriveFaultSeed(0) == 0 {
		t.Fatal("DeriveFaultSeed(0) is the unset sentinel 0")
	}
	if DeriveFaultSeed(7) != 7 {
		t.Fatalf("DeriveFaultSeed(7) = %d, want the identity mapping for non-zero seeds", DeriveFaultSeed(7))
	}

	base := cell.DefaultConfig()
	base.Faults = fault.Config{
		MFCRetryRate:  0.01,
		XDRStallRate:  0.05,
		EIBSlowRate:   0.02,
		EIBOutageRate: 0.02,
		DoneDelayRate: 0.02,
	}
	spec := SweepSpec{
		Scenario: "cycle",
		SPEs:     4,
		Chunks:   []int{4096},
		Seeds:    []int64{0, 1},
		Volume:   128 << 10,
		Workers:  2,
		Base:     &base,
	}
	a, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Err != nil {
			t.Fatalf("faulty point chunk=%d seed=%d failed: %v", a[i].Chunk, a[i].Seed, a[i].Err)
		}
		if a[i].Cycles != b[i].Cycles || a[i].GBps != b[i].GBps || a[i].FaultSeed != b[i].FaultSeed {
			t.Fatalf("faulty sweep not deterministic at point %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Seed != 0 || a[0].FaultSeed != DeriveFaultSeed(0) {
		t.Fatalf("seed-0 point ran fault seed %d, want DeriveFaultSeed(0) = %d",
			a[0].FaultSeed, DeriveFaultSeed(0))
	}
	if a[1].FaultSeed != 1 {
		t.Fatalf("seed-1 point ran fault seed %d, want the layout seed 1", a[1].FaultSeed)
	}

	// The derived seed must be live and reproducible: a direct run pinned
	// to DeriveFaultSeed(0) reproduces the grid point, and the sentinel
	// stream (injector seed 0) is a different run entirely.
	direct := faultyRunCycles(t, base, 0, DeriveFaultSeed(0))
	if direct != a[0].Cycles {
		t.Fatalf("direct run with the derived seed took %d cycles, sweep point took %d", direct, a[0].Cycles)
	}
	sentinel := faultyRunCycles(t, base, 0, 0)
	if sentinel == a[0].Cycles {
		t.Fatal("seed-0 grid point still runs the sentinel (injector seed 0) fault stream")
	}
}

// faultyRunCycles runs the test's cycle scenario once on layout seed
// layoutSeed with the injector seeded faultSeed, outside the sweep path.
func faultyRunCycles(t *testing.T, base cell.Config, layoutSeed, faultSeed int64) (cycles sim.Time) {
	t.Helper()
	cfg := base.Clone()
	cfg.Layout = cell.RandomLayout(layoutSeed)
	cfg.FaultSeed = faultSeed
	sys := cell.New(cfg)
	sc := cell.Scenario{Kind: "cycle", SPEs: 4, Chunk: 4096, Volume: 128 << 10, Op: "get"}
	if _, err := sc.Install(sys); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunChecked(0); err != nil {
		t.Fatal(err)
	}
	return sys.Eng.Now()
}

// TestSchedulerSubmitCloseRace: Submit registers its feeder with the
// scheduler's WaitGroup inside the admission critical section, so a
// concurrent Close either rejects the submission with ErrClosed or waits
// for its feed goroutine — it must never close the task channel under a
// feeder that then sends on it (a panic). Run with -race.
func TestSchedulerSubmitCloseRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		s := NewScheduler(SchedOptions{Workers: 2, MaxJobs: 8})
		spec := sweepSpec(0)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				j, err := s.Submit(context.Background(), spec)
				if err != nil {
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
						t.Errorf("Submit: %v", err)
					}
					return
				}
				for range j.Results() {
				}
			}()
		}
		close(start)
		s.Close() // races the submitters; must not panic
		wg.Wait()
		if _, err := s.Submit(context.Background(), spec); !errors.Is(err, ErrClosed) {
			t.Fatalf("Submit after Close: %v, want ErrClosed", err)
		}
	}
}

// TestPointKeyFigureKnobs: the memo key tells pair-figure variants apart,
// while a figure-less point keeps the key earlier journals recorded, so
// they still resume.
func TestPointKeyFigureKnobs(t *testing.T) {
	spec := SweepSpec{Scenario: "pair", Chunks: []int{4096}, Seeds: []int64{3}, Volume: 256 << 10}
	key := pointKey(&spec, 4096, 3)
	// Re-pinned when cell.Config lost its top-level noise pair and the
	// EIB's trace capacity: the key hashes the config's JSON, so journals
	// written before that re-simulate their points once.
	const pinned = "c79a6f23c93c5450072bd9ea48953a3fdc59a8b9d23216fc666b3253ea08f38b"
	if got := hex.EncodeToString(key[:]); got != pinned {
		t.Errorf("figure-less point key moved:\n got %s\nwant %s", got, pinned)
	}
	sync4, sync8 := spec, spec
	sync4.figure = cell.PairFigure{SyncEvery: 4}
	sync8.figure = cell.PairFigure{SyncEvery: 8}
	k4, k8 := pointKey(&sync4, 4096, 3), pointKey(&sync8, 4096, 3)
	if k4 == k8 || k4 == key {
		t.Error("specs that differ only in SyncEvery share a point key")
	}
}

// TestCacheHitsSkipTheQueue: the memo cache is resolved at admission, so
// a fully cached job finishes while the only worker is held by a miss,
// and a partly cached job sends only its misses to the worker pool.
// Every point counts once in CacheStats.
func TestCacheHitsSkipTheQueue(t *testing.T) {
	var (
		mu    sync.Mutex
		seen  []gridPoint
		gated bool
	)
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	s := NewScheduler(SchedOptions{
		Workers:     1,
		CachePoints: 64,
		BeforePoint: func(chunk int, seed int64) {
			mu.Lock()
			seen = append(seen, gridPoint{chunk: chunk, seed: seed})
			block := gated
			mu.Unlock()
			if block {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-gate
			}
		},
	})
	defer s.Close()
	releaseAll := sync.OnceFunc(func() { close(gate) })
	defer releaseAll() // before Close, which waits for the held worker
	spec := sweepSpec(0)
	spec.Chunks, spec.Seeds = []int{1024}, []int64{0, 1}
	drainJob(mustSubmit(t, s, spec)) // 2 misses warm the cache

	mu.Lock()
	gated = true
	mu.Unlock()
	miss := spec
	miss.Seeds = []int64{7}
	blocked := mustSubmit(t, s, miss)
	<-entered // the only worker is held by the miss

	cached := mustSubmit(t, s, spec)
	if st := cached.Status(); st.State != JobDone || st.Cached != 2 {
		t.Fatalf("cached job on return from Submit: %+v, want done with 2 cached", st)
	}
	n := 0
	for r := range cached.Results() { // closed already: this cannot block
		if !r.Cached {
			t.Errorf("point chunk=%d seed=%d not marked Cached", r.Chunk, r.Seed)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("cached job delivered %d points, want 2", n)
	}
	mu.Lock()
	gated = false
	mu.Unlock()
	releaseAll()
	drainJob(blocked)

	mu.Lock()
	seen = nil
	mu.Unlock()
	sims := s.CacheStats().Simulations
	partial := spec
	partial.Seeds = []int64{0, 1, 2, 3}
	if st := drainJob(mustSubmit(t, s, partial)); len(st) != 4 {
		t.Fatalf("partly cached job delivered %d points, want 4", len(st))
	}
	mu.Lock()
	got := append([]gridPoint(nil), seen...)
	mu.Unlock()
	sort.Slice(got, func(i, k int) bool { return got[i].seed < got[k].seed })
	if len(got) != 2 || got[0].seed != 2 || got[1].seed != 3 {
		t.Fatalf("workers took %+v, want exactly the misses seed 2 and 3", got)
	}
	if d := s.CacheStats().Simulations - sims; d != 2 {
		t.Fatalf("partly cached job simulated %d points, want 2", d)
	}
	// Misses: 2 + 1 + 2; hits: 2 + 2. A miss the admission lookup leaves
	// to the worker is counted once, by the worker.
	if st := s.CacheStats(); st.Hits != 4 || st.Misses != 5 {
		t.Fatalf("cache stats %+v, want 4 hits / 5 misses", st)
	}
}

// TestDuplicatePointHitsItsTwin: a point repeated in one grid misses at
// admission with its twin, and its worker's lookup hits once the twin
// has run.
func TestDuplicatePointHitsItsTwin(t *testing.T) {
	s := NewScheduler(SchedOptions{Workers: 1, CachePoints: 64})
	defer s.Close()
	spec := sweepSpec(0)
	spec.Chunks, spec.Seeds = []int{1024}, []int64{5, 5}
	got := drainJob(mustSubmit(t, s, spec))
	if len(got) != 2 || got[0].Cached == got[1].Cached {
		t.Fatalf("duplicate point results %+v, want one simulated and one cached", got)
	}
	if st := s.CacheStats(); st.Simulations != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 simulation / 1 hit / 1 miss", st)
	}
}

func mustSubmit(t *testing.T, s *Scheduler, spec SweepSpec) *Job {
	t.Helper()
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}
