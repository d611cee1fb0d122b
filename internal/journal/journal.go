// Package journal is the durability layer under the job scheduler: an
// append-only NDJSON write-ahead journal recording job submissions
// (canonicalized sweep specs) and per-point completions keyed by the
// scheduler's content-addressed memo key. A cellserve restart replays the
// journal: completed points warm the result cache (zero re-simulation)
// and jobs without a "done" record are resubmitted, so a crash or
// redeploy costs at most the points that had not been fsynced yet.
//
// The wire format is one JSON object per line, three record types:
//
//	{"t":"job","id":"<jid>","spec":{...}}   a sweep was submitted
//	{"t":"point","job":"<jid>","key":"<hex sha256>","res":{...}}
//	{"t":"done","id":"<jid>"}               every point delivered
//
// Job and done records fsync immediately (they are the resume decision);
// point records batch — one fsync per Options.SyncEvery records — so a
// hot sweep does not pay a disk round-trip per grid point. The tail of a
// batch is the declared loss window: a crash re-simulates at most
// SyncEvery-1 journaled-but-unsynced points.
//
// Open replays the existing file and compacts it: done jobs' job/done
// records are dropped, duplicate point records collapse to the newest,
// and completed jobs' points are kept newest-first up to keepPoints as
// cache warmers. The rewrite goes through a temp file + atomic rename,
// so a crash mid-compaction leaves the previous journal intact.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cellbe/internal/perfctr"
)

// FileName is the journal's file name inside its directory.
const FileName = "journal.ndjson"

// ErrCrashed is returned by appends after Crash — the test hook that
// simulates losing the process (and the unsynced write buffer) mid-run.
var ErrCrashed = errors.New("journal: crashed (test hook)")

const (
	// keepPoints caps how many completed-job point records survive
	// compaction as cache warmers. Points of unfinished jobs are always
	// kept.
	keepPoints = 4096
	// appendRetries is how many extra write attempts an append makes
	// after a failed one, with short exponential backoff.
	appendRetries = 2
)

// Options tunes a Journal.
type Options struct {
	// SyncEvery is the number of point records batched per fsync;
	// <= 0 syncs every record. Job and done records always sync.
	SyncEvery int
	// WriteErr, when set, is consulted before every append's physical
	// write with the record type ("job", "point", "done"); a non-nil
	// return fails that write attempt. It is the chaos harness's I/O
	// fault injection point and is not consulted during compaction.
	WriteErr func(op string) error
	// RetrySleep replaces the inter-retry sleep in tests; nil uses
	// time.Sleep.
	RetrySleep func(time.Duration)
}

func (o Options) syncEvery() int {
	if o.SyncEvery <= 0 {
		return 1
	}
	return o.SyncEvery
}

// PointRecord is one grid point's journaled result. Numeric fields mirror
// core.SweepResult (cycles in simulated sim.Time units); failed points
// carry Error/Code instead and are never replayed into the cache — they
// re-simulate on resume, which reproduces the same deterministic failure.
type PointRecord struct {
	Chunk      int      `json:"chunk"`
	Seed       int64    `json:"seed"`
	Cycles     int64    `json:"cycles,omitempty"`
	GBps       float64  `json:"gbps,omitempty"`
	Transfers  int64    `json:"transfers,omitempty"`
	WaitCycles int64    `json:"wait_cycles,omitempty"`
	Commands   int64    `json:"commands,omitempty"`
	FaultSeed  int64    `json:"fault_seed,omitempty"`
	Attempts   int      `json:"attempts,omitempty"`
	Error      string   `json:"error,omitempty"`
	Code       string   `json:"code,omitempty"`
	Log        []string `json:"log,omitempty"`
	// Perf is the point's perf-counter rollup; nil on failed points and
	// on records journaled before the counter subsystem existed (both
	// replay fine — a warmed point without counters just contributes
	// nothing to the rollup totals).
	Perf *perfctr.Rollup `json:"perf,omitempty"`
}

// Ok reports whether the point completed successfully (replayable into
// the memo cache).
func (r PointRecord) Ok() bool { return r.Error == "" }

// record is the on-disk line format.
type record struct {
	T    string          `json:"t"`
	ID   string          `json:"id,omitempty"`   // job, done
	Spec json.RawMessage `json:"spec,omitempty"` // job
	Job  string          `json:"job,omitempty"`  // point: owning job
	Key  string          `json:"key,omitempty"`  // point: hex memo key
	Res  *PointRecord    `json:"res,omitempty"`  // point
}

// JobRecord is one journaled job in replayed State.
type JobRecord struct {
	ID   string
	Spec json.RawMessage
	Done bool
}

// State is what Open replayed from an existing journal.
type State struct {
	// Jobs lists every journaled job in submission order.
	Jobs []JobRecord
	// Points maps memo key (hex) to the newest journaled result for that
	// key, across all jobs.
	Points map[string]PointRecord
}

// Incomplete returns the jobs with no "done" record, in submission
// order — the ones a restart must resubmit.
func (s *State) Incomplete() []JobRecord {
	var out []JobRecord
	for _, j := range s.Jobs {
		if !j.Done {
			out = append(out, j)
		}
	}
	return out
}

// Health is the journal's observability snapshot, surfaced by the
// server's readiness endpoint.
type Health struct {
	// Appends counts records accepted since Open (compacted records
	// excluded).
	Appends int64 `json:"appends"`
	// Syncs counts fsync batches since Open.
	Syncs int64 `json:"syncs"`
	// Lag is the number of accepted records not yet fsynced — the
	// current loss window.
	Lag int `json:"lag"`
	// LastError is the most recent append failure, empty once a later
	// append succeeds. A persistent error means new completions are not
	// durable (they would re-simulate after a crash) — readiness turns
	// false on it.
	LastError string `json:"last_error,omitempty"`
}

// pointEntry keeps per-key insertion order for compaction recency.
type pointEntry struct {
	key string
	job string
	rec PointRecord
}

// Journal is an open write-ahead journal. Safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	crashed bool
	closed  bool
	pending int // records written but not fsynced

	appends int64
	syncs   int64
	lastErr string

	// live state, maintained across appends for compaction
	jobs    map[string]*liveJob
	jobSeq  []string // submission order
	points  []pointEntry
	pointIx map[string]int // key -> index into points
	nextJID int64
	garbage int // records superseded or belonging to done jobs
}

type liveJob struct {
	spec json.RawMessage
	done bool
}

// Open creates dir if needed, replays any existing journal into a State,
// compacts the file (atomic rewrite) and returns the journal opened for
// append. The returned State is the caller's resume input: warm the
// cache from State.Points, resubmit State.Incomplete().
func Open(dir string, opts Options) (*Journal, *State, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	j := &Journal{
		dir:     dir,
		opts:    opts,
		jobs:    make(map[string]*liveJob),
		pointIx: make(map[string]int),
	}
	if err := j.replay(); err != nil {
		return nil, nil, err
	}
	if err := j.compactLocked(); err != nil {
		return nil, nil, err
	}
	// The state is snapshotted after compaction, so it is exactly what
	// the rewritten file holds: resume sees the same world a second
	// restart would.
	return j, j.state(), nil
}

// path returns the journal file path.
func (j *Journal) path() string { return filepath.Join(j.dir, FileName) }

// replay loads an existing journal file into the live state. A torn
// final line (crash mid-write) is tolerated and dropped; any other
// malformed line is skipped too — the journal is a cache+resume aid, and
// refusing to boot over one bad record would turn a durability feature
// into an availability bug.
func (j *Journal) replay() error {
	f, err := os.Open(j.path())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: opening %s: %w", j.path(), err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn tail or corrupt line: drop, keep booting
		}
		j.apply(rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("journal: reading %s: %w", j.path(), err)
	}
	return nil
}

// apply folds one record into the live state.
func (j *Journal) apply(rec record) {
	switch rec.T {
	case "job":
		if rec.ID == "" {
			return
		}
		j.noteID(rec.ID)
		if _, ok := j.jobs[rec.ID]; !ok {
			j.jobs[rec.ID] = &liveJob{spec: rec.Spec}
			j.jobSeq = append(j.jobSeq, rec.ID)
		}
	case "point":
		if rec.Key == "" || rec.Res == nil {
			return
		}
		j.noteID(rec.Job)
		if ix, ok := j.pointIx[rec.Key]; ok {
			// Newest record wins; the superseded one is garbage.
			j.points[ix] = pointEntry{key: rec.Key, job: rec.Job, rec: *rec.Res}
			j.garbage++
			return
		}
		j.pointIx[rec.Key] = len(j.points)
		j.points = append(j.points, pointEntry{key: rec.Key, job: rec.Job, rec: *rec.Res})
	case "done":
		if lj, ok := j.jobs[rec.ID]; ok && !lj.done {
			lj.done = true
			j.garbage += 2 // its job+done records will compact away
		}
	}
}

// state snapshots the live state for the caller.
func (j *Journal) state() *State {
	st := &State{Points: make(map[string]PointRecord, len(j.points))}
	for _, id := range j.jobSeq {
		lj := j.jobs[id]
		st.Jobs = append(st.Jobs, JobRecord{ID: id, Spec: lj.spec, Done: lj.done})
	}
	for _, pe := range j.points {
		st.Points[pe.key] = pe.rec
	}
	return st
}

// nextJobID mints a fresh journal job id. The sequence continues past
// every id seen in the replayed file (job records and the owning-job
// field of surviving point records), so a restarted process can never
// reuse the id of a compacted-away job whose warm points remain.
func (j *Journal) nextJobID() string {
	j.nextJID++
	return fmt.Sprintf("j-%d", j.nextJID)
}

// noteID advances the id sequence past a replayed "j-<n>" id.
func (j *Journal) noteID(id string) {
	var n int64
	if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n > j.nextJID {
		j.nextJID = n
	}
}

// AppendJob records a submission and returns its journal job id. The
// record is fsynced before AppendJob returns: the submission is the
// resume decision and must survive a crash that immediately follows.
func (j *Journal) AppendJob(spec json.RawMessage) (string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	id := j.nextJobID()
	rec := record{T: "job", ID: id, Spec: spec}
	if err := j.appendLocked(rec, true); err != nil {
		return "", err
	}
	j.apply(rec)
	return id, nil
}

// AppendPoint records one completed grid point under job jid, keyed by
// the scheduler's hex memo key. Point records batch SyncEvery per fsync.
func (j *Journal) AppendPoint(jid, key string, res PointRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := record{T: "point", Job: jid, Key: key, Res: &res}
	if err := j.appendLocked(rec, j.pending+1 >= j.opts.syncEvery()); err != nil {
		return err
	}
	j.apply(rec)
	return nil
}

// AppendDone records that every point of job jid was delivered; the
// record fsyncs immediately. It does not compact: CompactIfDue does, so
// a caller can seal a job before it releases the job's consumer and
// tidy the file after.
func (j *Journal) AppendDone(jid string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := record{T: "done", ID: jid}
	if err := j.appendLocked(rec, true); err != nil {
		return err
	}
	j.apply(rec)
	return nil
}

// CompactIfDue rewrites the file in place (atomic rename), keeping only
// what a restart needs, once most of it is dead weight: done jobs' records, superseded
// points, and warm points beyond the keepPoints cap. Otherwise it does
// nothing. Its cost grows with the file.
func (j *Journal) CompactIfDue() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	garbage := j.garbage
	if excess := len(j.points) - keepPoints; excess > 0 {
		garbage += excess
	}
	live := len(j.points) + 2*j.incompleteCount()
	if garbage > live && garbage > 64 {
		return j.compactLocked()
	}
	return nil
}

func (j *Journal) incompleteCount() int {
	n := 0
	for _, lj := range j.jobs {
		if !lj.done {
			n++
		}
	}
	return n
}

// appendLocked writes one record (with retries) and syncs when asked.
// Callers hold j.mu.
func (j *Journal) appendLocked(rec record, sync bool) error {
	if j.crashed {
		return ErrCrashed
	}
	if j.closed {
		return errors.New("journal: closed")
	}
	if err := j.ensureOpen(); err != nil {
		j.lastErr = err.Error()
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		// records are plain data; this cannot fail.
		panic(fmt.Sprintf("journal: marshaling record: %v", err))
	}
	line = append(line, '\n')

	write := func() error {
		if j.opts.WriteErr != nil {
			if err := j.opts.WriteErr(rec.T); err != nil {
				return err
			}
		}
		_, err := j.w.Write(line)
		return err
	}
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		err = write()
		if err == nil {
			break
		}
		if attempt >= appendRetries {
			j.lastErr = err.Error()
			return fmt.Errorf("journal: appending %s record: %w", rec.T, err)
		}
		sleep := j.opts.RetrySleep
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(backoff)
		backoff *= 2
	}
	j.appends++
	j.pending++
	j.lastErr = ""
	if sync {
		if err := j.syncLocked(); err != nil {
			j.lastErr = err.Error()
			return err
		}
	}
	return nil
}

func (j *Journal) ensureOpen() error {
	if j.f != nil {
		return nil
	}
	f, err := os.OpenFile(j.path(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: opening %s for append: %w", j.path(), err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	return nil
}

// Sync flushes buffered records to disk (fsync). The scheduler calls it
// at job boundaries; Close calls it last.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.crashed || j.closed || j.f == nil {
		return nil
	}
	if err := j.syncLocked(); err != nil {
		j.lastErr = err.Error()
		return err
	}
	return nil
}

func (j *Journal) syncLocked() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flushing: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.syncs++
	j.pending = 0
	return nil
}

// Close flushes, fsyncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil || j.crashed {
		return nil
	}
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Crash simulates a process crash for tests: the unsynced write buffer
// is discarded (as a real crash would lose it) and the journal refuses
// further use. Only fsynced records survive for the next Open.
func (j *Journal) Crash() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.crashed || j.closed {
		return
	}
	j.crashed = true
	if j.w != nil {
		j.w.Reset(io.Discard) // drop the unsynced tail
	}
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// Health snapshots the journal's counters for readiness reporting.
func (j *Journal) Health() Health {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Health{
		Appends:   j.appends,
		Syncs:     j.syncs,
		Lag:       j.pending,
		LastError: j.lastErr,
	}
}

// compactLocked rewrites the journal keeping only what a restart needs:
// job records of unfinished jobs, every point of an unfinished job, and
// the newest keepPoints other points as cache warmers. The rewrite is
// atomic (temp file + rename); on any error the old journal survives.
func (j *Journal) compactLocked() error {
	if j.crashed || j.closed {
		return nil
	}
	// Flush anything buffered so the state we rewrite from is complete.
	if j.f != nil {
		if err := j.syncLocked(); err != nil {
			return err
		}
		j.f.Close()
		j.f = nil
		j.w = nil
	}

	// Prune: drop done jobs, collapse points (already deduped), keep
	// completed-job points newest-first up to the cap.
	keepJobs := make(map[string]*liveJob)
	var keepSeq []string
	for _, id := range j.jobSeq {
		if lj := j.jobs[id]; !lj.done {
			keepJobs[id] = lj
			keepSeq = append(keepSeq, id)
		}
	}
	incomplete := func(jid string) bool {
		_, ok := keepJobs[jid]
		return ok
	}
	budget := keepPoints
	keepPt := make([]bool, len(j.points))
	for i := range j.points {
		if incomplete(j.points[i].job) {
			keepPt[i] = true
		}
	}
	for i := len(j.points) - 1; i >= 0 && budget > 0; i-- { // newest first
		if !keepPt[i] {
			keepPt[i] = true
			budget--
		}
	}
	var kept []pointEntry
	for i, keep := range keepPt {
		if keep {
			kept = append(kept, j.points[i])
		}
	}

	tmp := j.path() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compacting: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, id := range keepSeq {
		if err := enc.Encode(record{T: "job", ID: id, Spec: keepJobs[id].spec}); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("journal: compacting: %w", err)
		}
	}
	for i := range kept {
		rec := kept[i].rec
		if err := enc.Encode(record{T: "point", Job: kept[i].job, Key: kept[i].key, Res: &rec}); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("journal: compacting: %w", err)
		}
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compacting: %w", err)
	}
	if err := os.Rename(tmp, j.path()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compacting: %w", err)
	}
	// fsync the directory so the rename itself is durable.
	if d, err := os.Open(j.dir); err == nil {
		d.Sync()
		d.Close()
	}

	// Adopt the pruned state.
	j.jobs = keepJobs
	j.jobSeq = keepSeq
	j.points = kept
	j.pointIx = make(map[string]int, len(kept))
	for i, pe := range kept {
		j.pointIx[pe.key] = i
	}
	j.garbage = 0
	j.pending = 0
	return nil
}
