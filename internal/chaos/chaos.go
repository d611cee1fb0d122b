// Package chaos is the deterministic chaos harness for the durable job
// pipeline: seeded adversarial schedules that crash a sweep mid-flight,
// rebuild a scheduler from the journal, inject transient and permanent
// point failures, poison points past the retry budget, and fail journal
// writes — then assert the crash-safety contract:
//
//   - no lost points: the resumed job delivers every grid point;
//   - no stale work: journaled successes are served from the warm cache
//     and never re-simulate;
//   - bounded work: re-simulation is exactly the journal's declared loss
//     window plus the schedule's declared retries — nothing more;
//   - byte-identical output: the resumed sweep, canonicalized, equals an
//     uninterrupted run of the same schedule byte for byte.
//
// Every schedule is a pure function of its seed (Derive), so a failing
// seed reproduces exactly — there is no wall-clock or math/rand input
// anywhere in the harness.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/core"
	"cellbe/internal/fault"
	"cellbe/internal/journal"
)

// MaxAttempts is the retry budget every chaos schedule runs under: a
// point with MaxAttempts injected failures is guaranteed to poison.
const MaxAttempts = 3

// Point identifies one grid point of the chaos sweep.
type Point struct {
	Chunk int
	Seed  int64
}

// Schedule is one adversarial scenario, derived deterministically from
// a seed. All fields are declarative — Run interprets them.
type Schedule struct {
	// Seed is the schedule's identity; Derive(Seed) reproduces it.
	Seed int64
	// SyncEvery is the journal's batched-fsync interval (1..3). The
	// declared loss window of a crash is SyncEvery-1 points.
	SyncEvery int
	// CrashAfter is how many grid points complete before the process
	// "crashes" (0..total-1, so the job is always left incomplete).
	CrashAfter int
	// FailCounts injects that many consecutive transient failures into a
	// point's attempts. A count >= MaxAttempts poisons the point.
	FailCounts map[Point]int
	// SlowPoints mark points whose attempts stall briefly before
	// running — adversarial timing for the race detector.
	SlowPoints map[Point]bool
	// JournalErrEvery, when >= 2, fails every Nth physical journal write
	// once (the journal's first append retry succeeds) — exercising the
	// append retry path under load. 0 disables injection; 1 would fail
	// every write.
	JournalErrEvery int
	// Faults additionally turns on real simulator fault injection, so
	// retries and fault-seed re-rolls run against genuine DMA weather,
	// not only injected hook failures.
	Faults bool
}

// Derive expands a seed into a schedule using a splitmix64 stream — the
// same schedule for the same seed, forever.
func Derive(seed int64) Schedule {
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0x1234_5678
	next := func(n int) int {
		x = splitmix64(x)
		return int(x % uint64(n))
	}
	sch := Schedule{
		Seed:       seed,
		SyncEvery:  1 + next(3),
		FailCounts: map[Point]int{},
		SlowPoints: map[Point]bool{},
	}
	pts := gridPoints()
	sch.CrashAfter = next(len(pts))
	for _, pt := range pts {
		// ~half the points fail at least once; counts reach MaxAttempts+1
		// so some points poison even with a spare injected failure.
		if next(2) == 0 {
			sch.FailCounts[pt] = 1 + next(MaxAttempts+1)
		}
		if next(4) == 0 {
			sch.SlowPoints[pt] = true
		}
	}
	switch next(3) {
	case 0:
		sch.JournalErrEvery = 2 + next(3)
	case 1:
		sch.Faults = true
	}
	return sch
}

// Spec is the sweep every schedule runs: a small fixed grid, large
// enough for interesting crash points, small enough to run dozens of
// schedules under -race.
func (sch Schedule) Spec() core.SweepSpec {
	spec := core.SweepSpec{
		Scenario: "cycle",
		SPEs:     4,
		Chunks:   []int{1024, 4096},
		Seeds:    []int64{0, 1, 2},
		Volume:   64 << 10,
		Workers:  1,
	}
	if sch.Faults {
		// A mild real-fault profile: enough injection to exercise retry
		// against genuine DMA weather, mild enough that the sweep still
		// completes quickly.
		cfg := cell.DefaultConfig()
		cfg.Faults = fault.Config{
			MFCRetryRate: 0.02,
			EIBSlowRate:  0.02,
			XDRStallRate: 0.02,
		}
		spec.Base = &cfg
	}
	return spec
}

func gridPoints() []Point {
	spec := Schedule{}.Spec()
	var pts []Point
	for _, c := range spec.Chunks {
		for _, s := range spec.Seeds {
			pts = append(pts, Point{Chunk: c, Seed: s})
		}
	}
	return pts
}

// Report is the outcome of one schedule run. Violations is empty when
// every invariant held.
type Report struct {
	Schedule   Schedule
	Total      int   // grid points in the sweep
	Journaled  int   // point records that survived the crash
	Warmed     int   // journaled successes replayed into the cache
	Resimmed   int64 // real simulations in the resumed process
	Violations []string
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// callCounter counts FailPoint hook invocations per point — the proxy
// for "this point's simulation path ran" (cache hits bypass the hook).
type callCounter struct {
	mu    sync.Mutex
	calls map[Point]int
}

func (c *callCounter) inc(pt Point) {
	c.mu.Lock()
	c.calls[pt]++
	c.mu.Unlock()
}

func (c *callCounter) get(pt Point) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[pt]
}

// hook builds the schedule's FailPoint injector: the first FailCounts
// attempts of a marked point fail transiently, slow points stall, and
// every invocation is tallied in calls.
func (sch Schedule) hook(calls *callCounter) func(chunk int, seed int64, attempt int) error {
	return func(chunk int, seed int64, attempt int) error {
		pt := Point{Chunk: chunk, Seed: seed}
		calls.inc(pt)
		if sch.SlowPoints[pt] {
			time.Sleep(200 * time.Microsecond)
		}
		if attempt < sch.FailCounts[pt] {
			return &core.TransientError{Err: fmt.Errorf("chaos: injected failure %d of point chunk=%d seed=%d", attempt, chunk, seed)}
		}
		return nil
	}
}

// journalOptions builds the schedule's journal options, including the
// fail-once-every-Nth write injector. The injector is keyed on a shared
// counter: the retry of a failed write advances the counter and
// succeeds, so injected journal errors are always transient.
func (sch Schedule) journalOptions() journal.Options {
	opts := journal.Options{
		SyncEvery:  sch.SyncEvery,
		RetrySleep: func(time.Duration) {},
	}
	if n := sch.JournalErrEvery; n > 0 {
		var mu sync.Mutex
		count := 0
		opts.WriteErr = func(op string) error {
			mu.Lock()
			defer mu.Unlock()
			count++
			if count%n == 0 {
				return fmt.Errorf("chaos: injected %s write error #%d", op, count)
			}
			return nil
		}
	}
	return opts
}

func (sch Schedule) retry() core.RetryPolicy {
	return core.RetryPolicy{
		MaxAttempts: MaxAttempts,
		Sleep:       func(time.Duration) {},
	}
}

// canonPoint is the canonical, comparison-stable form of a sweep result:
// sorted order, Cached normalized away, errors by string.
type canonPoint struct {
	Chunk      int
	Seed       int64
	Cycles     int64
	GBps       float64
	Transfers  int64
	WaitCycles int64
	Commands   int64
	FaultSeed  int64
	Attempts   int
	Err        string `json:",omitempty"`
	Code       string `json:",omitempty"`
}

// Canon canonicalizes sweep results for byte-comparison: sorted by
// (chunk, seed), the Cached flag and Log dropped (where a result came
// from is process history, not sweep output), errors flattened to
// string + classification code.
func Canon(results []core.PointResult) []byte {
	pts := make([]canonPoint, 0, len(results))
	for _, r := range results {
		cp := canonPoint{
			Chunk:      r.Chunk,
			Seed:       r.Seed,
			Cycles:     int64(r.Cycles),
			GBps:       r.GBps,
			Transfers:  r.Transfers,
			WaitCycles: int64(r.WaitCycles),
			Commands:   r.Commands,
			FaultSeed:  r.FaultSeed,
			Attempts:   r.Attempts,
		}
		if r.Err != nil {
			cp.Err = r.Err.Error()
			cp.Code = core.FailureCode(r.Err)
		}
		pts = append(pts, cp)
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Chunk != pts[j].Chunk {
			return pts[i].Chunk < pts[j].Chunk
		}
		return pts[i].Seed < pts[j].Seed
	})
	b, err := json.MarshalIndent(pts, "", " ")
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

func drain(j *core.Job) []core.PointResult {
	var out []core.PointResult
	for r := range j.Results() {
		out = append(out, r)
	}
	return out
}

// Run executes one schedule end to end — reference run, crash run,
// resume run — and checks every invariant. It returns an error only for
// harness plumbing failures; contract breaches land in
// Report.Violations.
func Run(dir string, sch Schedule) (*Report, error) {
	spec := sch.Spec()
	total := len(spec.Chunks) * len(spec.Seeds)
	rep := &Report{Schedule: sch, Total: total}

	// Reference: the same schedule uninterrupted, no journal. Its
	// canonical output is what the crashed-and-resumed run must
	// reproduce byte for byte.
	refCalls := &callCounter{calls: map[Point]int{}}
	refSched := core.NewScheduler(core.SchedOptions{
		Workers:   2,
		Retry:     sch.retry(),
		FailPoint: sch.hook(refCalls),
	})
	refJob, err := refSched.Submit(context.Background(), spec)
	if err != nil {
		refSched.Close()
		return nil, fmt.Errorf("chaos: reference submit: %w", err)
	}
	ref := drain(refJob)
	refSched.Close()
	refCanon := Canon(ref)
	refAttempts := map[Point]int{}
	for _, r := range ref {
		refAttempts[Point{Chunk: r.Chunk, Seed: r.Seed}] = r.Attempts
	}

	// Process 1: run CrashAfter points, then crash. The journal drops
	// everything unsynced; the scheduler tears down without a done
	// record, exactly like a killed process.
	jr1, st0, err := journal.Open(dir, sch.journalOptions())
	if err != nil {
		return nil, fmt.Errorf("chaos: opening journal: %w", err)
	}
	if len(st0.Jobs) != 0 {
		return nil, fmt.Errorf("chaos: journal dir %s not fresh: %d jobs", dir, len(st0.Jobs))
	}
	calls1 := &callCounter{calls: map[Point]int{}}
	started := 0
	crashNow := make(chan struct{})
	crashed := make(chan struct{})
	s1 := core.NewScheduler(core.SchedOptions{
		Workers:   1,
		Journal:   jr1,
		Retry:     sch.retry(),
		FailPoint: sch.hook(calls1),
		BeforePoint: func(int, int64) {
			started++
			if started == sch.CrashAfter+1 {
				close(crashNow)
				<-crashed
			}
		},
	})
	job1, err := s1.Submit(context.Background(), spec)
	if err != nil {
		s1.Close()
		jr1.Crash()
		return nil, fmt.Errorf("chaos: crash-run submit: %w", err)
	}
	<-crashNow
	jr1.Crash()
	job1.Cancel()
	close(crashed)
	s1.Close()
	delivered1 := drain(job1)
	if len(delivered1) != sch.CrashAfter {
		rep.violate("crash run delivered %d points, want exactly CrashAfter=%d", len(delivered1), sch.CrashAfter)
	}

	// Process 2: reopen, warm, resume, drain.
	jr2, st, err := journal.Open(dir, sch.journalOptions())
	if err != nil {
		return nil, fmt.Errorf("chaos: reopening journal: %w", err)
	}
	defer jr2.Close()
	rep.Journaled = len(st.Points)

	// Declared loss window: a crash loses at most SyncEvery-1 point
	// records, and never invents any.
	if min := sch.CrashAfter - (sch.SyncEvery - 1); rep.Journaled < max(0, min) || rep.Journaled > sch.CrashAfter {
		rep.violate("journal kept %d of %d completed points; allowed window [%d, %d]",
			rep.Journaled, sch.CrashAfter, max(0, min), sch.CrashAfter)
	}
	if n := len(st.Incomplete()); n != 1 {
		rep.violate("journal replayed %d incomplete jobs, want 1", n)
		return rep, nil
	}

	calls2 := &callCounter{calls: map[Point]int{}}
	s2 := core.NewScheduler(core.SchedOptions{
		Workers:     2,
		CachePoints: 64,
		Journal:     jr2,
		Retry:       sch.retry(),
		FailPoint:   sch.hook(calls2),
	})
	defer s2.Close()
	rs := s2.Resume(context.Background(), st)
	rep.Warmed = rs.WarmedPoints
	if len(rs.Jobs) != 1 || rs.SkippedJobs != 0 {
		rep.violate("resume produced %d jobs (%d skipped), want 1 resumed job", len(rs.Jobs), rs.SkippedJobs)
		return rep, nil
	}
	resumed := drain(rs.Jobs[0])
	rep.Resimmed = s2.CacheStats().Simulations

	// Invariant: no lost points.
	if len(resumed) != total {
		rep.violate("resumed job delivered %d of %d points — points were lost", len(resumed), total)
	}

	// Invariant: resumed output is byte-identical to the uninterrupted
	// reference.
	if got := Canon(resumed); string(got) != string(refCanon) {
		rep.violate("resumed output diverged from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", refCanon, got)
	}

	// Invariant: journaled successes are served warm, never re-simulated;
	// and no point exceeds its declared attempt budget.
	warmedOK := map[Point]bool{}
	for _, rec := range st.Points {
		if rec.Ok() {
			warmedOK[Point{Chunk: rec.Chunk, Seed: rec.Seed}] = true
		}
	}
	var wantSims int64
	for _, pt := range gridPoints() {
		got := calls2.get(pt)
		if warmedOK[pt] {
			if got != 0 {
				rep.violate("point %+v was journaled+warmed yet attempted %d times on resume", pt, got)
			}
			continue
		}
		// A re-simulated point replays the reference run's deterministic
		// attempt sequence (injected failures plus any real fault
		// retries) — one hook call per attempt, and not one more.
		if budget := refAttempts[pt]; got > budget {
			rep.violate("point %+v attempted %d times on resume, budget %d — double simulation", pt, got, budget)
		}
		// Real simulations per point: the reference attempts minus the
		// attempts consumed by the injected hook failures.
		if sims := refAttempts[pt] - min(sch.FailCounts[pt], refAttempts[pt]); sims > 0 {
			wantSims += int64(sims)
		}
	}
	if rep.Resimmed != wantSims {
		rep.violate("resume ran %d real simulations, want exactly %d (missing points only)", rep.Resimmed, wantSims)
	}

	// Invariant: the resumed job finished, so a third boot sees nothing
	// to resume — crash-exactly-once semantics. The journal closes after
	// the scheduler (SchedOptions.Journal): the results channel closes
	// before the worker appends the done record.
	s2.Close()
	if err := jr2.Close(); err != nil {
		rep.violate("closing journal after resume: %v", err)
	}
	jr3, st3, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, fmt.Errorf("chaos: third open: %w", err)
	}
	defer jr3.Close()
	if n := len(st3.Incomplete()); n != 0 {
		rep.violate("after a clean finish, %d jobs still marked incomplete", n)
	}
	return rep, nil
}

// splitmix64 is the standard splitmix64 finalizer, duplicated here (the
// core copy is private) so schedule derivation has no dependencies.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
