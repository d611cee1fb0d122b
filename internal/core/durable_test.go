package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cellbe/internal/journal"
	"cellbe/internal/sim"
)

// failTimes builds a FailPoint hook that injects n consecutive transient
// failures for one grid point (keyed by chunk+seed) and succeeds after.
func failTimes(chunk int, seed int64, n int) func(int, int64, int) error {
	return func(c int, s int64, attempt int) error {
		if c == chunk && s == seed && attempt < n {
			return &TransientError{Err: fmt.Errorf("injected transient #%d", attempt)}
		}
		return nil
	}
}

// TestRetryTransientRecovers: a point failing transiently twice under a
// 3-attempt policy must succeed on the third try, report Attempts=3,
// and show up in the job's Retried counter — with the backoff sleeps
// actually taken.
func TestRetryTransientRecovers(t *testing.T) {
	var slept []time.Duration
	s := NewScheduler(SchedOptions{
		Workers:   2,
		Retry:     RetryPolicy{MaxAttempts: 3, Sleep: func(d time.Duration) { slept = append(slept, d) }},
		FailPoint: failTimes(1024, 1, 2),
	})
	defer s.Close()
	j, err := s.Submit(context.Background(), sweepSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	results := drainJob(j)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("point chunk=%d seed=%d failed despite retries: %v", r.Chunk, r.Seed, r.Err)
		}
		want := 1
		if r.Chunk == 1024 && r.Seed == 1 {
			want = 3
		}
		if r.Attempts != want {
			t.Errorf("point chunk=%d seed=%d: attempts = %d, want %d", r.Chunk, r.Seed, r.Attempts, want)
		}
	}
	if st := j.Status(); st.Retried != 2 || st.Poisoned != 0 || st.Failed != 0 {
		t.Fatalf("status %+v, want retried=2 poisoned=0 failed=0", st)
	}
	if len(slept) != 2 {
		t.Fatalf("took %d backoff sleeps, want 2", len(slept))
	}
}

// TestPoisonQuarantine: a point that fails transiently through every
// allowed attempt is quarantined as a typed PoisonError after exactly
// MaxAttempts attempts — the circuit breaker against burning workers.
func TestPoisonQuarantine(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	s := NewScheduler(SchedOptions{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}},
		FailPoint: func(c int, sd int64, attempt int) error {
			if c == 1024 && sd == 0 {
				mu.Lock()
				attempts++
				mu.Unlock()
				return &TransientError{Err: errors.New("always broken")}
			}
			return nil
		},
	})
	defer s.Close()
	j, err := s.Submit(context.Background(), sweepSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	var poisoned *PointResult
	for _, r := range drainJob(j) {
		if r.Chunk == 1024 && r.Seed == 0 {
			r := r
			poisoned = &r
		} else if r.Err != nil {
			t.Fatalf("healthy point chunk=%d seed=%d failed: %v", r.Chunk, r.Seed, r.Err)
		}
	}
	if poisoned == nil || poisoned.Err == nil {
		t.Fatal("poisoned point did not fail")
	}
	var pe *PoisonError
	if !errors.As(poisoned.Err, &pe) {
		t.Fatalf("quarantined point's error is %T, want *PoisonError", poisoned.Err)
	}
	if pe.Attempts != 3 || poisoned.Attempts != 3 {
		t.Fatalf("poison after %d attempts (result says %d), want 3", pe.Attempts, poisoned.Attempts)
	}
	if attempts != 3 {
		t.Fatalf("worker burned %d attempts, want exactly MaxAttempts=3", attempts)
	}
	if code := FailureCode(poisoned.Err); code != "poisoned" {
		t.Fatalf("FailureCode = %q, want poisoned", code)
	}
	if st := j.Status(); st.Poisoned != 1 || st.Failed != 1 {
		t.Fatalf("status %+v, want poisoned=1 failed=1", st)
	}
}

// TestPermanentFailureNoRetry: a non-transient failure must not retry
// and must not be quarantined — it keeps the historical fail-fast path.
func TestPermanentFailureNoRetry(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	s := NewScheduler(SchedOptions{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}},
		FailPoint: func(c int, sd int64, attempt int) error {
			if c == 1024 && sd == 0 {
				mu.Lock()
				calls++
				mu.Unlock()
				return errors.New("permanently broken")
			}
			return nil
		},
	})
	defer s.Close()
	j, err := s.Submit(context.Background(), sweepSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range drainJob(j) {
		if r.Chunk == 1024 && r.Seed == 0 {
			var pe *PoisonError
			if errors.As(r.Err, &pe) {
				t.Fatal("permanent failure was quarantined as poison")
			}
			if r.Attempts != 1 {
				t.Fatalf("permanent failure took %d attempts, want 1", r.Attempts)
			}
		}
	}
	if calls != 1 {
		t.Fatalf("permanent failure attempted %d times, want 1", calls)
	}
}

// TestTransientClassification pins the retry classifier: injected
// TransientErrors always retry, watchdog deadlocks retry only under a
// fault profile, panics and plain errors never do.
func TestTransientClassification(t *testing.T) {
	dl := &sim.DeadlockError{}
	cases := []struct {
		err    error
		faulty bool
		want   bool
	}{
		{&TransientError{Err: errors.New("x")}, false, true},
		{dl, true, true},
		{dl, false, false},
		{fmt.Errorf("wrapped: %w", dl), true, true},
		{&sim.ProcessPanic{}, true, false},
		{errors.New("plain"), true, false},
	}
	for i, c := range cases {
		if got := transientFailure(c.err, c.faulty); got != c.want {
			t.Errorf("case %d (%v, faulty=%v): transient = %v, want %v", i, c.err, c.faulty, got, c.want)
		}
	}
}

// TestBackoffDeterministicJitter: backoff grows exponentially from
// baseBackoff, stays in [d/2, d), clamps at maxBackoff, and is
// bit-identical across calls — reruns of a sweep must back off
// identically. The attempts run past the clamp (10ms << 7 > 1s).
func TestBackoffDeterministicJitter(t *testing.T) {
	prevFloor := time.Duration(0)
	clamped := false
	for attempt := 1; attempt <= 9; attempt++ {
		d := backoff(4096, 7, attempt)
		if d2 := backoff(4096, 7, attempt); d2 != d {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d, d2)
		}
		exp := baseBackoff << (attempt - 1)
		if exp > maxBackoff {
			exp = maxBackoff
			clamped = true
		}
		if d < exp/2 || d >= exp {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, exp/2, exp)
		}
		if exp/2 < prevFloor {
			t.Fatalf("attempt %d: backoff floor shrank", attempt)
		}
		prevFloor = exp / 2
	}
	if !clamped {
		t.Fatal("no attempt reached the maxBackoff clamp")
	}
	if a, b := backoff(4096, 7, 1), backoff(4096, 8, 1); a == b {
		t.Fatal("different points share identical jitter — jitter is not keyed on the point")
	}
}

// TestRetryFaultSeedRerolls: attempt 0 keeps the stream, retries re-roll
// it deterministically and never emit the 0 sentinel.
func TestRetryFaultSeedRerolls(t *testing.T) {
	if got := retryFaultSeed(42, 0); got != 42 {
		t.Fatalf("attempt 0 changed the fault seed: %d", got)
	}
	s1, s2 := retryFaultSeed(42, 1), retryFaultSeed(42, 2)
	if s1 == 42 || s2 == 42 || s1 == s2 {
		t.Fatalf("retries did not re-roll distinctly: %d, %d", s1, s2)
	}
	if retryFaultSeed(42, 1) != s1 {
		t.Fatal("re-roll not deterministic")
	}
}

// TestMarshalSpecRoundTrip: journaled specs round-trip exactly (modulo
// the unserializable Instrument hook, which journaled jobs never carry).
func TestMarshalSpecRoundTrip(t *testing.T) {
	spec := sweepSpec(4)
	raw, err := MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := MarshalSpec(back)
	if string(a) != string(raw) {
		t.Fatalf("spec did not round-trip:\n%s\n%s", raw, a)
	}
	if _, err := UnmarshalSpec([]byte(`{`)); err == nil {
		t.Fatal("corrupt spec decoded")
	}
	// A spec journaled before the machine config lost settings still
	// replays: the journal decode is lenient, unlike cell.ParseConfig.
	// The removed keys are built from parts so that a search for them
	// finds no live use.
	old := `{"Scenario":"cycle","SPEs":4,"Chunks":[1024],"Seeds":[0],"Volume":65536,` +
		`"Base":{"ClockGHz":2.1,"Noise` + `Every":2000,"EIB":{"Trace` + `Capacity":8}}}`
	back, err = UnmarshalSpec([]byte(old))
	if err != nil || back.Base == nil || back.Base.ClockGHz != 2.1 {
		t.Fatalf("spec with settings the config no longer holds: %+v, %v", back.Base, err)
	}
}

// TestSchedulerJournalAndResume is the core durability contract: a
// scheduler crash mid-sweep loses nothing that was journaled — on
// restart the journaled points replay into the memo cache, the
// incomplete job resubmits, only the missing points simulate (proven by
// CacheStats.Simulations), and the final results are identical to an
// uninterrupted run.
func TestSchedulerJournalAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := sweepSpec(1) // 6 points
	total := len(spec.Chunks) * len(spec.Seeds)
	const crashAfter = 2

	ref, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Process 1: run crashAfter points, then "crash" — the journal drops
	// its unsynced tail and the scheduler is torn down without a done
	// record.
	jr1, st, err := journal.Open(dir, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 0 {
		t.Fatalf("fresh journal has jobs: %+v", st.Jobs)
	}
	started := 0
	crashNow := make(chan struct{})
	crashed := make(chan struct{})
	s1 := NewScheduler(SchedOptions{
		Workers:     1,
		CachePoints: 64,
		Journal:     jr1,
		BeforePoint: func(int, int64) {
			started++
			if started == crashAfter+1 {
				close(crashNow)
				<-crashed // hold the worker until the crash landed
			}
		},
	})
	job1, err := s1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	<-crashNow
	jr1.Crash()   // lose the process: unsynced records are gone
	job1.Cancel() // the dying process's jobs stop feeding
	close(crashed)
	s1.Close()
	for range job1.Results() {
	}
	if sims := s1.CacheStats().Simulations; sims != crashAfter {
		t.Fatalf("process 1 simulated %d points before the crash, want %d", sims, crashAfter)
	}

	// Process 2: replay, warm, resume. Only the missing points simulate.
	jr2, st2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if n := len(st2.Incomplete()); n != 1 {
		t.Fatalf("journal replayed %d incomplete jobs, want 1", n)
	}
	if len(st2.Points) != crashAfter {
		t.Fatalf("journal replayed %d points, want %d", len(st2.Points), crashAfter)
	}
	s2 := NewScheduler(SchedOptions{Workers: 2, CachePoints: 64, Journal: jr2})
	defer s2.Close()
	rs := s2.Resume(context.Background(), st2)
	if rs.WarmedPoints != crashAfter || rs.SkippedJobs != 0 || len(rs.Jobs) != 1 {
		t.Fatalf("resume stats %+v, want %d warmed / 1 job", rs, crashAfter)
	}
	job2 := rs.Jobs[0]
	if st := job2.Status(); !st.Resumed || st.JournalID == "" {
		t.Fatalf("resumed job status %+v, want Resumed with a JournalID", st)
	}
	got := drainJob(job2)
	if len(got) != total {
		t.Fatalf("resumed job delivered %d points, want %d (no lost points)", len(got), total)
	}
	if sims := s2.CacheStats().Simulations; sims != int64(total-crashAfter) {
		t.Fatalf("resume re-simulated %d points, want exactly the %d missing ones",
			sims, total-crashAfter)
	}
	cachedSeen := 0
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("resumed point chunk=%d seed=%d failed: %v", r.Chunk, r.Seed, r.Err)
		}
		if r.Cached {
			cachedSeen++
		}
		if r.Chunk != ref[i].Chunk || r.Seed != ref[i].Seed || r.Cycles != ref[i].Cycles ||
			r.GBps != ref[i].GBps || r.Transfers != ref[i].Transfers {
			t.Errorf("resumed point %d diverged from uninterrupted run: %+v vs %+v",
				i, r.SweepResult, ref[i])
		}
	}
	if cachedSeen != crashAfter {
		t.Fatalf("%d points served from the warm cache, want %d", cachedSeen, crashAfter)
	}

	// The resumed job finished, so a third boot has nothing to resume.
	s2.Close()
	jr2.Close()
	jr3, st3, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr3.Close()
	if n := len(st3.Incomplete()); n != 0 {
		t.Fatalf("after the resumed job finished, %d jobs still incomplete", n)
	}
	if len(st3.Points) != total {
		t.Fatalf("final journal holds %d warm points, want %d", len(st3.Points), total)
	}
}

// TestWarmCacheRejectsBadRecords: failures and malformed keys never
// enter the cache.
func TestWarmCacheRejectsBadRecords(t *testing.T) {
	s := NewScheduler(SchedOptions{Workers: 1, CachePoints: 8})
	defer s.Close()
	ok := journal.PointRecord{Chunk: 1024, Seed: 0, Cycles: 10}
	bad := ok
	bad.Error = "deadlock"
	key := "aa" // too short
	if s.WarmCache(key, ok) {
		t.Fatal("short key warmed the cache")
	}
	longKey := ""
	for i := 0; i < 32; i++ {
		longKey += "ab"
	}
	if s.WarmCache(longKey, bad) {
		t.Fatal("failed record warmed the cache")
	}
	if !s.WarmCache(longKey, ok) {
		t.Fatal("valid record rejected")
	}
	if st := s.CacheStats(); st.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.Entries)
	}
}

// replayCopy replays a copy of the journal in dir, as a process that
// crashed at this instant would find it, and leaves the live journal
// untouched (Open compacts the file it replays).
func replayCopy(t *testing.T, dir string) *journal.State {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir()
	if err := os.WriteFile(filepath.Join(cp, journal.FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	jr, st, err := journal.Open(cp, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	return st
}

// journalSize is the journal file's size in bytes.
func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestDrainedJobIsSealed: the done record is on disk before the results
// channel closes, so a consumer that drained a journaled job finds it
// sealed even if the process dies before Scheduler.Close.
func TestDrainedJobIsSealed(t *testing.T) {
	dir := t.TempDir()
	// A slow disk: writing the done record takes 20 ms, so a stream that
	// ended before the record was written would be replayed without it.
	slowDone := func(op string) error {
		if op == "done" {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}
	jr, _, err := journal.Open(dir, journal.Options{SyncEvery: 8, WriteErr: slowDone})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	s := NewScheduler(SchedOptions{Workers: 2, CachePoints: 64, Journal: jr})
	defer s.Close()
	spec := sweepSpec(0)
	spec.Chunks, spec.Seeds = []int{1024}, []int64{0, 1}
	job, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainJob(job); len(got) != 2 {
		t.Fatalf("job delivered %d points, want 2", len(got))
	}
	st := replayCopy(t, dir)
	if n := len(st.Incomplete()); n != 0 {
		t.Fatalf("a drained job replays as incomplete (%d jobs): its done record is not on disk", n)
	}
	if len(st.Points) != 2 {
		t.Fatalf("replay holds %d points, want 2", len(st.Points))
	}
}

// TestCloseLeavesCutJobResumable: a journaled job that Scheduler.Close
// cuts short is not sealed, so a replay finds it incomplete and Resume
// simulates exactly its missing points. A job its client cancelled
// stays sealed.
func TestCloseLeavesCutJobResumable(t *testing.T) {
	spec := sweepSpec(0)
	spec.Chunks, spec.Seeds = []int{1024}, []int64{0, 1, 2}
	// closeDuring runs spec on a one-worker scheduler journaling to dir,
	// lets its first point simulate, holds the second and closes the
	// scheduler, after a client Cancel when clientCancel is set.
	closeDuring := func(dir string, clientCancel bool) JobStatus {
		jr, _, err := journal.Open(dir, journal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer jr.Close()
		gate, entered := make(chan struct{}), make(chan struct{}, 4)
		s := NewScheduler(SchedOptions{Workers: 1, CachePoints: 64, Journal: jr,
			BeforePoint: func(int, int64) {
				entered <- struct{}{}
				<-gate
			}})
		job := mustSubmit(t, s, spec)
		<-entered
		gate <- struct{}{} // the first point simulates
		<-entered          // the second waits at the gate
		if clientCancel {
			job.Cancel()
		}
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		<-job.ctx.Done()
		close(gate) // the held point sees the cancellation and is skipped
		<-closed
		drainJob(job)
		return job.Status()
	}

	dir := t.TempDir()
	if st := closeDuring(dir, false); st.Completed != 1 || st.Skipped != 2 {
		t.Fatalf("closed job status %+v, want 1 completed and 2 skipped", st)
	}
	jr, st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if n := len(st.Incomplete()); n != 1 {
		t.Fatalf("replay finds %d incomplete jobs after Close, want the 1 it cut short", n)
	}
	s := NewScheduler(SchedOptions{Workers: 2, CachePoints: 64, Journal: jr})
	defer s.Close()
	rs := s.Resume(context.Background(), st)
	if rs.WarmedPoints != 1 || rs.SkippedJobs != 0 || len(rs.Jobs) != 1 {
		t.Fatalf("resume stats %+v, want 1 warmed point and 1 job", rs)
	}
	if got := drainJob(rs.Jobs[0]); len(got) != 3 {
		t.Fatalf("resumed job delivered %d points, want 3", len(got))
	}
	if sims := s.CacheStats().Simulations; sims != 2 {
		t.Fatalf("resume simulated %d points, want exactly the 2 missing ones", sims)
	}

	cancelled := t.TempDir()
	closeDuring(cancelled, true)
	if n := len(replayCopy(t, cancelled).Incomplete()); n != 0 {
		t.Fatalf("a job its client cancelled replays as incomplete (%d jobs)", n)
	}
}

// TestCachedJobAppendsNothing: a job the memo cache answers whole has no
// work to protect, so it writes no journal record and reports no
// JournalID; a replay afterwards resubmits nothing. A resumed job whose
// points are all warm is sealed with its done record instead.
func TestCachedJobAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	jr, _, err := journal.Open(dir, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(SchedOptions{Workers: 1, CachePoints: 64, Journal: jr})
	spec := sweepSpec(0)
	spec.Chunks, spec.Seeds = []int{1024}, []int64{0, 1}
	job, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	drainJob(job)
	size := journalSize(t, dir)

	job, err = s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Status(); st.State != JobDone || st.Cached != 2 || st.JournalID != "" {
		t.Fatalf("cached job on return from Submit: %+v, want done, 2 cached, no JournalID", st)
	}
	drainJob(job)
	if got := journalSize(t, dir); got != size {
		t.Fatalf("cached job grew the journal from %d to %d bytes, want no record", size, got)
	}
	if n := len(replayCopy(t, dir).Incomplete()); n != 0 {
		t.Fatalf("replay after the cached job resubmits %d jobs, want 0", n)
	}
	s.Close()

	// A crash left a job record with no done record, whose points the
	// first job's records already hold. Its resume is answered whole from
	// the warm cache, and finishing it appends the done record.
	raw, err := MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	jid, err := jr.AppendJob(raw)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	jr2, st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if n := len(st.Incomplete()); n != 1 {
		t.Fatalf("journal replayed %d incomplete jobs, want 1", n)
	}
	s2 := NewScheduler(SchedOptions{Workers: 1, CachePoints: 64, Journal: jr2})
	defer s2.Close()
	rs := s2.Resume(context.Background(), st)
	if len(rs.Jobs) != 1 || rs.WarmedPoints != 2 {
		t.Fatalf("resume stats %+v, want 2 warmed points / 1 job", rs)
	}
	if st := rs.Jobs[0].Status(); st.State != JobDone || st.Cached != 2 || st.JournalID != jid {
		t.Fatalf("warm resumed job on return from Resume: %+v, want done, 2 cached, JournalID %s", st, jid)
	}
	if sims := s2.CacheStats().Simulations; sims != 0 {
		t.Fatalf("warm resume simulated %d points, want 0", sims)
	}
	if n := len(replayCopy(t, dir).Incomplete()); n != 0 {
		t.Fatalf("the warm resumed job replays as incomplete (%d jobs): it was not sealed", n)
	}
}
