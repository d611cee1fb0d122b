package core

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"cellbe/internal/cell"
	"cellbe/internal/journal"
	"cellbe/internal/perfctr"
)

// ErrQueueFull is returned by Submit when the scheduler already holds
// MaxJobs unfinished jobs. It is the backpressure signal: callers should
// retry later (the HTTP layer maps it to 429 + Retry-After).
var ErrQueueFull = errors.New("core: scheduler job queue is full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("core: scheduler is closed")

// keepJobs is how many finished jobs stay queryable through Job()
// before the oldest are pruned.
const keepJobs = 256

// SchedOptions configures a Scheduler.
type SchedOptions struct {
	// Workers is the size of the simulation worker pool shared by every
	// job; <= 0 uses GOMAXPROCS.
	Workers int
	// MaxJobs bounds the unfinished (queued + running) jobs the scheduler
	// admits; Submit returns ErrQueueFull beyond it. <= 0 defaults to 16.
	MaxJobs int
	// CachePoints is the capacity of the content-addressed result cache
	// (grid points, LRU-evicted). 0 disables memoization — the right
	// setting for one-shot sweeps that never resubmit a point.
	CachePoints int
	// BeforePoint, when set, runs on the worker goroutine before every
	// grid point a worker takes: the misses of the admission cache lookup
	// (the worker's own lookup may still hit). It exists for tests that
	// need to gate or observe worker progress deterministically;
	// production callers leave it nil.
	BeforePoint func(chunk int, seed int64)
	// Journal, when set, makes jobs durable: submissions and per-point
	// completions are appended to the write-ahead journal, and a restart
	// resumes incomplete jobs via Resume. Instrumented and kernel jobs
	// are never journaled (their hooks are process state). The caller
	// owns the journal's lifetime and closes it after Close.
	Journal *journal.Journal
	// Retry is the per-point self-healing policy: transient failures
	// (fault-injected deadlocks, injected TransientErrors) retry with
	// exponential backoff and deterministic jitter; a point failing
	// MaxAttempts consecutive times is quarantined as a PoisonError. The
	// zero value disables retries.
	Retry RetryPolicy
	// FailPoint, when set, runs before every simulation attempt
	// (attempt is 0-based); a non-nil return replaces the attempt's
	// simulation with that failure. It is the chaos harness's injection
	// point for adversarial schedules; production callers leave it nil.
	FailPoint func(chunk int, seed int64, attempt int) error
}

func (o SchedOptions) maxJobs() int {
	if o.MaxJobs <= 0 {
		return 16
	}
	return o.MaxJobs
}

// PointResult is one grid point's SweepResult plus scheduler metadata.
type PointResult struct {
	SweepResult
	// Cached marks a memoized result: the point was not re-simulated.
	// Its Log slice is shared with every other consumer of the cache
	// entry and must be treated as read-only.
	Cached bool
}

// Scheduler is the reusable job layer under RunSweep, cellbench, cellsim
// and cellserve: a bounded worker pool that shards grid points across
// cores, a content-addressed result cache so resubmitted points are free,
// and bounded job admission so untrusted request streams degrade into
// ErrQueueFull instead of unbounded goroutines. Failures stay per-point
// (SweepResult.Err), exactly as in RunSweep — a deadlocked or panicking
// simulation never takes a worker down.
type Scheduler struct {
	opts   SchedOptions
	tasks  chan pointTask
	workWG sync.WaitGroup
	feedWG sync.WaitGroup

	sims    atomic.Int64 // points actually simulated (cache hits excluded)
	pending atomic.Int64 // grid points admitted but not yet delivered or skipped

	// arena is the one boot path: every simulated point boots onto one of
	// its carcasses and retires it afterwards, across jobs. Each worker
	// holds at most one carcass at a time, so at most Workers are live.
	arena cell.Arena

	perfMu sync.Mutex
	perf   perfctr.Rollup // counter totals over every delivered point

	mu      sync.Mutex
	closed  bool
	active  int
	nextID  int64
	jobs    map[string]*Job
	doneIDs []string // finished jobs in finish order, for pruning
	cache   *pointCache
}

type pointTask struct {
	job *Job
	pt  gridPoint
}

// NewScheduler starts the worker pool and returns the scheduler. Callers
// own its lifetime and must Close it.
func NewScheduler(opts SchedOptions) *Scheduler {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		opts:  opts,
		tasks: make(chan pointTask, workers),
		jobs:  make(map[string]*Job),
	}
	if opts.CachePoints > 0 {
		s.cache = newPointCache(opts.CachePoints)
	}
	for w := 0; w < workers; w++ {
		s.workWG.Add(1)
		go s.worker()
	}
	return s
}

// Close cancels every unfinished job, waits for in-flight points to
// drain and stops the workers. Submit fails with ErrClosed afterwards. A
// job it cuts short is not sealed: the next boot's Resume finishes it.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.shutdown.Store(j.ctx.Err() == nil) // not already cancelled by its client
		j.Cancel()
	}
	s.feedWG.Wait()
	close(s.tasks)
	s.workWG.Wait()
	s.arena.Release()
}

// SubmitOptions carries submission metadata beyond the spec itself.
type SubmitOptions struct {
	// Resumed marks the job as a journal resume (reported in JobStatus).
	Resumed bool
	// JournalID reuses an existing journal job id instead of appending a
	// fresh job record — the resume path, where the record already
	// exists from before the restart.
	JournalID string
}

// Submit validates spec, snapshots its base config and enqueues the sweep
// as a job whose grid points the worker pool executes. It returns
// ErrQueueFull when MaxJobs jobs are already unfinished. Cancelling ctx
// cancels the job: points not yet started are skipped (a running
// simulation finishes its point first — simulations are not preemptible).
func (s *Scheduler) Submit(ctx context.Context, spec SweepSpec) (*Job, error) {
	return s.SubmitWith(ctx, spec, SubmitOptions{})
}

// SubmitWith is Submit with explicit SubmitOptions (the resume path).
//
// Admission resolves the memo cache once per grid point: hits are
// delivered before SubmitWith returns, and only misses reach the worker
// pool. A job the cache answers whole is finished on return; it takes no
// worker and writes no journal record, since it has no work a crash
// could lose (a resumed one is sealed with its done record).
func (s *Scheduler) SubmitWith(ctx context.Context, spec SweepSpec, opts SubmitOptions) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Base != nil {
		// Snapshot now, synchronously: after Submit returns, the caller
		// may mutate *spec.Base (its Layout slice included) without
		// racing any worker.
		b := spec.Base.Clone()
		spec.Base = &b
	}
	grid := make([]gridPoint, 0, len(spec.Chunks)*len(spec.Seeds))
	for _, c := range spec.Chunks {
		for _, sd := range spec.Seeds {
			grid = append(grid, gridPoint{chunk: c, seed: sd})
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.active >= s.opts.maxJobs() {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.active++
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	jctx, cancel := context.WithCancel(ctx)
	// Private jobs bypass the cache both ways: a memoized hit would skip
	// the simulation the hook observes, and a hook-retained System must
	// not be recorded as a reusable result. They bypass the journal for
	// the same reason: a journaled result must be replayable.
	j := &Job{
		ID:        id,
		seq:       s.nextID,
		sched:     s,
		spec:      spec,
		grid:      grid,
		cacheable: s.cache != nil && !spec.private(),
		journaled: s.opts.Journal != nil && !spec.private(),
		resumed:   opts.Resumed,
		ctx:       jctx,
		cancel:    cancel,
		results:   make(chan PointResult, len(grid)),
	}
	if j.journaled {
		// A resumed job the cache answers whole finishes with its last
		// hit, which seals this record.
		j.jid = opts.JournalID
	}
	s.jobs[id] = j
	// Register the feeder before releasing the lock: Close checks the
	// closed flag and waits on feedWG under the same ordering, so it can
	// never observe a zero count, close(s.tasks), and then race a feed
	// goroutine spawned by a Submit it already admitted.
	s.feedWG.Add(1)
	s.pending.Add(int64(len(grid)))
	s.mu.Unlock()

	misses := s.resolve(j)
	if len(misses) == 0 {
		s.feedWG.Done() // no feeder: the job finished with its last hit
		return j, nil
	}
	// Journal the submission before any miss can run, so a crash right
	// after admission still resumes the job. A journal failure degrades
	// to an unjournaled job (sticky in journal Health / readiness)
	// rather than rejecting the request: durability is best-effort,
	// availability is not.
	if j.journaled && j.jid == "" {
		if raw, err := MarshalSpec(spec); err == nil {
			if jid, err := s.opts.Journal.AppendJob(raw); err == nil {
				j.mu.Lock()
				j.jid = jid
				j.mu.Unlock()
			}
		}
	}
	go s.feed(j, misses)
	return j, nil
}

// resolve keys the job's grid points and looks each up in the memo
// cache once: it delivers the hits and returns the misses the worker
// pool must run. A miss is not counted here: the worker looks it up
// again, and that lookup decides it.
func (s *Scheduler) resolve(j *Job) (misses []gridPoint) {
	if !j.cacheable && !j.journaled {
		return j.grid
	}
	for i := range j.grid {
		pt := &j.grid[i]
		pt.key = pointKey(&j.spec, pt.chunk, pt.seed)
		if j.cacheable {
			if r, ok := s.cache.get(pt.key, false); ok {
				r.Cached = true
				j.deliver(r)
				continue
			}
		}
		misses = append(misses, *pt)
	}
	return misses
}

// Job returns a submitted job by ID (finished jobs stay queryable until
// keepJobs newer ones have finished).
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Active returns the number of unfinished jobs.
func (s *Scheduler) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Closed reports whether Close has begun — the readiness probe's
// "shutting down" signal.
func (s *Scheduler) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Depth reports the scheduler's queue depth for readiness probes:
// unfinished jobs and grid points admitted but not yet delivered or
// skipped.
func (s *Scheduler) Depth() (jobs int, points int64) {
	s.mu.Lock()
	jobs = s.active
	s.mu.Unlock()
	return jobs, s.pending.Load()
}

// CacheStats reports the result cache counters plus the total number of
// points actually simulated — the number a memoized resubmission leaves
// unchanged.
func (s *Scheduler) CacheStats() CacheStats {
	s.mu.Lock()
	c := s.cache
	s.mu.Unlock()
	var st CacheStats
	if c != nil {
		st = c.stats()
	}
	st.Simulations = s.sims.Load()
	return st
}

// PerfTotals returns the perf-counter rollup summed over every point the
// scheduler has delivered (cache hits carry their memoized rollup) — the
// always-on observability tier the /metrics endpoint exposes.
func (s *Scheduler) PerfTotals() perfctr.Rollup {
	s.perfMu.Lock()
	defer s.perfMu.Unlock()
	return s.perf
}

// Jobs snapshots every job still tracked (unfinished, plus finished jobs
// not yet pruned), ordered by submission.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].seq < out[k].seq })
	return out
}

// feed pushes the job's cache misses to the worker pool, abandoning the
// unfed tail as skipped if the job is cancelled first.
func (s *Scheduler) feed(j *Job, misses []gridPoint) {
	defer s.feedWG.Done()
	for i, pt := range misses {
		select {
		case s.tasks <- pointTask{job: j, pt: pt}:
		case <-j.ctx.Done():
			j.skip(len(misses) - i)
			return
		}
	}
}

func (s *Scheduler) worker() {
	defer s.workWG.Done()
	for t := range s.tasks {
		s.runTask(t)
	}
}

func (s *Scheduler) runTask(t pointTask) {
	j, pt := t.job, t.pt
	if j.ctx.Err() != nil {
		j.skip(1)
		return
	}
	j.markStarted()
	if hook := s.opts.BeforePoint; hook != nil {
		hook(pt.chunk, pt.seed)
		if j.ctx.Err() != nil {
			j.skip(1)
			return
		}
	}
	if j.cacheable {
		// The admission lookup missed, but a twin point (in this job or
		// another) may have run since. Cache hits are not re-journaled:
		// the record that warmed the cache (or produced it in a prior
		// job) is already on disk, or was compacted away — in which case
		// a resume simply re-simulates the point.
		if r, ok := s.cache.get(pt.key, true); ok {
			r.Cached = true
			j.deliver(r)
			return
		}
	}
	res := s.simulate(j, pt)
	if j.cacheable {
		s.cache.put(pt.key, res)
	}
	if j.journaled {
		// An append failure is absorbed: the result is already bound for
		// the client, and the journal's sticky Health error flips
		// readiness until appends succeed again.
		s.opts.Journal.AppendPoint(j.jid, hex.EncodeToString(pt.key[:]), resultRecord(res.SweepResult))
	}
	j.deliver(res)
}

// simulate runs one grid point under the retry policy: transient
// failures back off and retry (each retry deterministically re-rolls
// the fault stream), and a point that stays transiently broken through
// MaxAttempts is quarantined as a PoisonError instead of burning the
// worker further.
func (s *Scheduler) simulate(j *Job, pt gridPoint) PointResult {
	pol := s.opts.Retry
	maxA := pol.maxAttempts()
	faulty := j.spec.faultsEnabled()
	var res PointResult
	for attempt := 0; ; attempt++ {
		res = PointResult{SweepResult: s.attemptPoint(j, pt, attempt)}
		res.Attempts = attempt + 1
		if res.Err == nil || !transientFailure(res.Err, faulty) {
			return res
		}
		if attempt+1 >= maxA {
			break
		}
		if j.ctx.Err() != nil {
			// Cancelled mid-retry: report the transient failure as-is
			// instead of sleeping out a backoff nobody waits for.
			return res
		}
		pol.sleep(backoff(pt.chunk, pt.seed, attempt+1))
	}
	if pol.enabled() {
		res.Err = &PoisonError{Chunk: pt.chunk, Seed: pt.seed, Attempts: res.Attempts, Last: res.Err}
		res.Log = append(res.Log, res.Err.Error())
	}
	return res
}

// attemptPoint executes one attempt of a grid point. The chaos FailPoint
// hook may substitute an injected failure for the simulation; a real
// simulation counts toward the Simulations proof counter.
func (s *Scheduler) attemptPoint(j *Job, pt gridPoint, attempt int) SweepResult {
	if hook := s.opts.FailPoint; hook != nil {
		if err := hook(pt.chunk, pt.seed, attempt); err != nil {
			return SweepResult{Chunk: pt.chunk, Seed: pt.seed, Err: err, Log: []string{err.Error()}}
		}
	}
	res := runPoint(&j.spec, &s.arena, pt.chunk, pt.seed, attempt)
	s.sims.Add(1)
	return res
}

// WarmPoints reports how many grid points booted onto a recycled arena
// carcass instead of a new System — the /metrics observability for the
// arena.
func (s *Scheduler) WarmPoints() int64 { return s.arena.Recycled() }

// release retires a finished job: frees its admission slot and prunes the
// oldest finished jobs beyond keepJobs.
func (s *Scheduler) release(id string) {
	s.mu.Lock()
	s.active--
	s.doneIDs = append(s.doneIDs, id)
	for len(s.doneIDs) > keepJobs {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
	s.mu.Unlock()
}

type gridPoint struct {
	chunk int
	seed  int64
	key   [sha256.Size]byte // pointKey, set at admission for cached or journaled jobs
}

// JobState enumerates a job's lifecycle for status reporting.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobCancelled JobState = "cancelled"
)

// JobStatus is a point-in-time snapshot of a job's progress.
type JobStatus struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Total     int      `json:"total"`
	Completed int      `json:"completed"`
	Failed    int      `json:"failed"`
	Cached    int      `json:"cached"`
	Skipped   int      `json:"skipped,omitempty"`
	// Retried counts extra simulation attempts the retry policy spent on
	// transient failures (completed points' attempts beyond the first).
	Retried int `json:"retried,omitempty"`
	// Poisoned counts points quarantined by the circuit breaker
	// (PoisonError) — failures that exhausted every allowed retry.
	Poisoned int `json:"poisoned,omitempty"`
	// Resumed marks a job resubmitted from the write-ahead journal after
	// a restart.
	Resumed bool `json:"resumed,omitempty"`
	// JournalID is the job's durable identity in the write-ahead journal
	// (stable across restarts, unlike ID); empty when journaling is off
	// or the memo cache answered the whole job at admission.
	JournalID string `json:"journal_id,omitempty"`
}

// Job is one submitted sweep: its grid points flow through the scheduler's
// worker pool and stream out of Results in completion order.
type Job struct {
	ID      string
	seq     int64 // submission order, for stable Jobs() listings
	sched   *Scheduler
	spec    SweepSpec
	grid    []gridPoint
	jid     string // write-ahead journal id; empty when unjournaled
	resumed bool

	cacheable bool // the memo cache answers and records its points
	journaled bool // its simulated points are appended to the journal

	ctx     context.Context
	cancel  context.CancelFunc
	results chan PointResult

	mu        sync.Mutex
	started   bool
	delivered int
	failed    int
	cached    int
	skipped   int
	retried   int
	poisoned  int
	finished  bool
	perf      perfctr.Rollup // counter totals over delivered points

	shutdown atomic.Bool // cancelled by Scheduler.Close
}

// Total returns the number of grid points in the job.
func (j *Job) Total() int { return len(j.grid) }

// Results streams the job's point results in completion order (not grid
// order — sort by (Chunk, Seed) for the canonical ordering). The channel
// closes when every point has been delivered or skipped; a cancelled
// job's channel closes after the skipped tail is accounted.
func (j *Job) Results() <-chan PointResult { return j.results }

// Cancel stops the job: grid points not yet started are skipped, and the
// results channel closes once in-flight points finish. Safe to call any
// number of times, from any goroutine.
func (j *Job) Cancel() { j.cancel() }

// Status snapshots the job's progress.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Total:     len(j.grid),
		Completed: j.delivered,
		Failed:    j.failed,
		Cached:    j.cached,
		Skipped:   j.skipped,
		Retried:   j.retried,
		Poisoned:  j.poisoned,
		Resumed:   j.resumed,
		JournalID: j.jid,
	}
	switch {
	case j.ctx.Err() != nil && (j.skipped > 0 || !j.finished):
		st.State = JobCancelled
	case j.finished:
		st.State = JobDone
	case !j.started:
		st.State = JobQueued
	default:
		st.State = JobRunning
	}
	return st
}

func (j *Job) markStarted() {
	j.mu.Lock()
	j.started = true
	j.mu.Unlock()
}

// deliver hands one point result to the consumer. The results channel is
// buffered to the full grid, so a slow (or gone) consumer can never block
// a worker.
func (j *Job) deliver(r PointResult) {
	j.results <- r
	j.sched.pending.Add(-1)
	if r.Perf != nil {
		j.sched.perfMu.Lock()
		j.sched.perf.Add(*r.Perf)
		j.sched.perfMu.Unlock()
	}
	j.mu.Lock()
	j.started = true
	j.delivered++
	if r.Err != nil {
		j.failed++
	}
	if r.Cached {
		j.cached++
	}
	if r.Attempts > 1 {
		j.retried += r.Attempts - 1
	}
	var pe *PoisonError
	if errors.As(r.Err, &pe) {
		j.poisoned++
	}
	if r.Perf != nil {
		j.perf.Add(*r.Perf)
	}
	fin := !j.finished && j.delivered+j.skipped == len(j.grid)
	if fin {
		j.finished = true
	}
	j.mu.Unlock()
	if fin {
		j.finish()
	}
}

// Perf returns the perf-counter rollup summed over the job's delivered
// points so far (cache hits included via their memoized rollups).
func (j *Job) Perf() perfctr.Rollup {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.perf
}

// skip accounts n grid points that will never run (cancellation).
func (j *Job) skip(n int) {
	j.sched.pending.Add(-int64(n))
	j.mu.Lock()
	j.skipped += n
	fin := !j.finished && j.delivered+j.skipped == len(j.grid)
	if fin {
		j.finished = true
	}
	j.mu.Unlock()
	if fin {
		j.finish()
	}
}

func (j *Job) finish() {
	// Free the admission slot before the consumer can see the stream
	// end, so a caller that drained this job may submit the next at once.
	j.sched.release(j.ID)
	// A finished job — every point delivered or deliberately skipped —
	// will never need resuming: seal it in the journal so the next boot
	// does not resurrect it. (A crash is precisely the absence of this
	// record.) Points skipped because the scheduler closed were not given
	// up by the client, so such a job stays open for Resume. The append
	// fsyncs before returning, and the stream ends only after it, so a
	// consumer that drained the job finds it sealed.
	jr := j.sched.opts.Journal
	sealed := jr != nil && j.jid != "" && !(j.shutdown.Load() && j.Status().Skipped > 0)
	if sealed {
		jr.AppendDone(j.jid)
	}
	close(j.results)
	j.cancel() // release the context's resources
	// Compaction is housekeeping, not durability, and its cost grows
	// with the file: it runs after the stream ends, off the consumer's
	// path.
	if sealed {
		jr.CompactIfDue()
	}
}

// pointKey canonicalizes everything that determines a grid point's result
// — the scenario (kind, SPE count, op, list variant, chunk, volume, pair
// figure knobs), the fully resolved machine configuration (fault config
// and derived fault seed included) and the watchdog budget — into a
// content address. Two submissions that would simulate identically hash
// identically, whatever spec fields (Workers, Instrument, seed-list
// order) differ around them. The figure knobs enter only when set, so a
// figure-less point keeps the key journals already hold.
//
// The key is the SHA-256 of the JSON object
//
//	{"Scenario":…,"Config":…,"Seed":…,"MaxCycles":…[,"Figure":…]}
//
// byte for byte as json.Marshal writes it for a struct of those fields,
// streamed into the hash piece by piece. The layout is a pure function of
// the seed, so the key never builds it: Config is the layout-free
// machineConfig, encoded with a null Layout.
func pointKey(spec *SweepSpec, chunk int, seed int64) [sha256.Size]byte {
	cfg := machineConfig(spec.Base, seed)
	h := sha256.New()
	buf := append(make([]byte, 0, 256), `{"Scenario":`...)
	buf = append(buf, mustJSON(spec.scenario(chunk))...)
	buf = append(buf, `,"Config":`...)
	h.Write(buf)
	if spec.Base == nil {
		h.Write(defaultConfigJSON())
	} else {
		h.Write(mustJSON(&cfg))
	}
	buf = append(buf[:0], `,"Seed":`...)
	buf = strconv.AppendInt(buf, seed, 10)
	buf = append(buf, `,"MaxCycles":`...)
	buf = strconv.AppendInt(buf, int64(spec.MaxCycles), 10)
	if spec.figure != (cell.PairFigure{}) {
		buf = append(buf, `,"Figure":`...)
		buf = append(buf, mustJSON(spec.figure)...)
	}
	h.Write(append(buf, '}'))
	var key [sha256.Size]byte
	copy(key[:], h.Sum(buf[:0]))
	return key
}

// defaultConfigJSON is the encoding of the default machine, the config of
// every point whose spec names no base: the default injects no faults, so
// no point derives a fault seed on it. It is encoded once.
var defaultConfigJSON = sync.OnceValue(func() []byte {
	return mustJSON(cell.DefaultConfig())
})

// mustJSON encodes one part of a point key. The parts are plain data;
// this cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: canonicalizing point key: %v", err))
	}
	return b
}

// CacheStats are the result-cache counters. Hits and Misses count each
// grid point of a cached job once, by the lookup that decided it.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Simulations counts grid points actually simulated by this
	// scheduler since start — the number that stays flat when a
	// resubmitted sweep is served entirely from the cache.
	Simulations int64 `json:"simulations"`
}

// pointCache is a bounded LRU of point results keyed by content address.
type pointCache struct {
	mu        sync.Mutex
	cap       int
	entries   map[[sha256.Size]byte]*list.Element
	order     *list.List // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key [sha256.Size]byte
	res PointResult
}

func newPointCache(capacity int) *pointCache {
	return &pointCache{
		cap:     capacity,
		entries: make(map[[sha256.Size]byte]*list.Element),
		order:   list.New(),
	}
}

// get looks key up and counts a hit. A miss is counted only when
// countMiss is set: a lookup that does not decide the point leaves its
// miss to the one that does.
func (c *pointCache) get(key [sha256.Size]byte, countMiss bool) (PointResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return PointResult{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *pointCache) put(key [sha256.Size]byte, res PointResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for len(c.entries) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

func (c *pointCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
