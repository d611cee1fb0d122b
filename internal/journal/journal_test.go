package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Journal, *State) {
	t.Helper()
	j, st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, st
}

func pt(chunk int, seed int64) PointRecord {
	return PointRecord{Chunk: chunk, Seed: seed, Cycles: 100 + int64(chunk), GBps: 1.5, Attempts: 1}
}

// TestJournalRoundTrip: appended jobs, points and done records replay
// into the same State on reopen.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, st := mustOpen(t, dir, Options{})
	if len(st.Jobs) != 0 || len(st.Points) != 0 {
		t.Fatalf("fresh journal replayed non-empty state: %+v", st)
	}
	spec := json.RawMessage(`{"scenario":"cycle"}`)
	jid, err := j.AppendJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendPoint(jid, "k1", pt(1024, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendPoint(jid, "k2", pt(4096, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, st2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	inc := st2.Incomplete()
	if len(inc) != 1 || inc[0].ID != jid || string(inc[0].Spec) != string(spec) {
		t.Fatalf("incomplete jobs after reopen: %+v, want [%s]", inc, jid)
	}
	if len(st2.Points) != 2 || st2.Points["k1"].Chunk != 1024 || st2.Points["k2"].Seed != 1 {
		t.Fatalf("points after reopen: %+v", st2.Points)
	}
	if !st2.Points["k1"].Ok() {
		t.Fatal("successful point not Ok after replay")
	}
}

// TestJournalDoneCompacts: a done job's records are dropped at the next
// Open, but its points survive as cache warmers.
func TestJournalDoneCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	jid, _ := j.AppendJob(json.RawMessage(`{}`))
	j.AppendPoint(jid, "k1", pt(1024, 0))
	if err := j.AppendDone(jid); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, st := mustOpen(t, dir, Options{})
	defer j2.Close()
	if n := len(st.Incomplete()); n != 0 {
		t.Fatalf("done job still listed incomplete: %d", n)
	}
	if len(st.Points) != 1 {
		t.Fatalf("done job's points dropped: %+v", st.Points)
	}
	// After compaction the file holds only the point record.
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"t":"job"`) || strings.Contains(string(data), `"t":"done"`) {
		t.Fatalf("compacted file still carries job/done records:\n%s", data)
	}
}

// TestJournalCompactIfDue: AppendDone only seals; CompactIfDue rewrites
// the file once done jobs' records outweigh the live ones, and not
// before.
func TestJournalCompactIfDue(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	defer j.Close()
	path := filepath.Join(dir, FileName)
	count := func(typ string) int {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(data), `"t":"`+typ+`"`)
	}
	seal := func(i int) {
		jid, _ := j.AppendJob(json.RawMessage(`{}`))
		j.AppendPoint(jid, fmt.Sprintf("k%d", i), pt(1024, int64(i)))
		if err := j.AppendDone(jid); err != nil {
			t.Fatal(err)
		}
	}
	seal(0)
	if err := j.CompactIfDue(); err != nil {
		t.Fatal(err)
	}
	if count("done") != 1 {
		t.Fatal("CompactIfDue compacted a file that is mostly live records")
	}
	for i := 1; i < 40; i++ { // 80 dead job/done records against 40 points
		seal(i)
	}
	if count("done") != 40 {
		t.Fatalf("AppendDone compacted: %d done records left, want 40", count("done"))
	}
	if err := j.CompactIfDue(); err != nil {
		t.Fatal(err)
	}
	if count("job") != 0 || count("done") != 0 || count("point") != 40 {
		t.Fatalf("after CompactIfDue: %d job, %d done, %d point records; want 0, 0, 40",
			count("job"), count("done"), count("point"))
	}
}

// TestJournalBatchedSyncAndCrash: with SyncEvery=3, the unsynced tail of
// a batch dies with a crash — and only that tail.
func TestJournalBatchedSyncAndCrash(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{SyncEvery: 3})
	jid, _ := j.AppendJob(json.RawMessage(`{}`)) // job records sync immediately
	for i := 0; i < 5; i++ {
		if err := j.AppendPoint(jid, fmt.Sprintf("k%d", i), pt(1024, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if lag := j.Health().Lag; lag != 2 {
		t.Fatalf("after 5 points with SyncEvery=3: lag = %d, want 2", lag)
	}
	j.Crash()

	j2, st := mustOpen(t, dir, Options{})
	defer j2.Close()
	if len(st.Incomplete()) != 1 {
		t.Fatalf("job record lost in crash: %+v", st.Jobs)
	}
	if len(st.Points) != 3 {
		t.Fatalf("crash kept %d points, want the 3 fsynced ones (lost unsynced tail of 2)", len(st.Points))
	}
	for _, k := range []string{"k0", "k1", "k2"} {
		if _, ok := st.Points[k]; !ok {
			t.Fatalf("fsynced point %s lost in crash", k)
		}
	}
}

// TestJournalAppendAfterCrash: a crashed journal refuses appends.
func TestJournalAppendAfterCrash(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{})
	jid, _ := j.AppendJob(json.RawMessage(`{}`))
	j.Crash()
	if err := j.AppendPoint(jid, "k", pt(1, 0)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after crash: %v, want ErrCrashed", err)
	}
}

// TestJournalWriteErrRetries: a transiently failing write succeeds on
// retry and leaves no sticky error; a persistently failing one surfaces
// in Health and fails the append.
func TestJournalWriteErrRetries(t *testing.T) {
	fails := 0
	var slept []time.Duration
	j, _ := mustOpen(t, t.TempDir(), Options{
		WriteErr: func(op string) error {
			if fails > 0 {
				fails--
				return errors.New("disk on fire")
			}
			return nil
		},
		RetrySleep: func(d time.Duration) { slept = append(slept, d) },
	})
	defer j.Close()
	jid, err := j.AppendJob(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}

	fails = 1 // first attempt fails, retry succeeds
	if err := j.AppendPoint(jid, "k1", pt(1, 0)); err != nil {
		t.Fatalf("append with one transient write error: %v", err)
	}
	if len(slept) != 1 {
		t.Fatalf("retry slept %d times, want 1", len(slept))
	}
	if h := j.Health(); h.LastError != "" {
		t.Fatalf("sticky error after successful retry: %q", h.LastError)
	}

	fails = 10 // exhausts the default 2 retries
	if err := j.AppendPoint(jid, "k2", pt(2, 0)); err == nil {
		t.Fatal("append with persistent write errors succeeded")
	}
	if h := j.Health(); !strings.Contains(h.LastError, "disk on fire") {
		t.Fatalf("persistent failure not surfaced in Health: %+v", h)
	}

	fails = 0 // recovery clears the sticky error
	if err := j.AppendPoint(jid, "k3", pt(3, 0)); err != nil {
		t.Fatal(err)
	}
	if h := j.Health(); h.LastError != "" {
		t.Fatalf("sticky error survived a successful append: %q", h.LastError)
	}
}

// TestJournalTornTailTolerated: a partial final line (crash mid-write)
// must not poison the replay of the records before it.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	jid, _ := j.AppendJob(json.RawMessage(`{}`))
	j.AppendPoint(jid, "k1", pt(1024, 0))
	j.Close()

	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"point","job":"` + jid + `","key":"k2","res":{"chu`) // torn
	f.Close()

	j2, st := mustOpen(t, dir, Options{})
	defer j2.Close()
	if len(st.Points) != 1 || len(st.Incomplete()) != 1 {
		t.Fatalf("torn tail corrupted replay: %d points, %d incomplete",
			len(st.Points), len(st.Incomplete()))
	}
}

// TestJournalPointDedup: a re-journaled key keeps only the newest record.
func TestJournalPointDedup(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	jid, _ := j.AppendJob(json.RawMessage(`{}`))
	j.AppendPoint(jid, "k1", pt(1024, 0))
	newer := pt(1024, 0)
	newer.Attempts = 3
	j.AppendPoint(jid, "k1", newer)
	j.Close()

	j2, st := mustOpen(t, dir, Options{})
	defer j2.Close()
	if len(st.Points) != 1 || st.Points["k1"].Attempts != 3 {
		t.Fatalf("dedup kept the wrong record: %+v", st.Points)
	}
}

// TestJournalKeepPointsCap: compaction keeps completed-job points
// newest-first up to keepPoints, and always keeps incomplete jobs'. The
// journal batches point fsyncs so the keepPoints+3 appends stay cheap.
func TestJournalKeepPointsCap(t *testing.T) {
	const extra = 3
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{SyncEvery: 1 << 20})
	doneJob, _ := j.AppendJob(json.RawMessage(`{}`))
	for i := 0; i < keepPoints+extra; i++ {
		j.AppendPoint(doneJob, fmt.Sprintf("d%d", i), pt(1024, int64(i)))
	}
	j.AppendDone(doneJob)
	liveJob, _ := j.AppendJob(json.RawMessage(`{}`))
	j.AppendPoint(liveJob, "live0", pt(2048, 0))
	j.Close()

	j2, st := mustOpen(t, dir, Options{})
	defer j2.Close()
	if _, ok := st.Points["live0"]; !ok {
		t.Fatal("incomplete job's point pruned by keepPoints")
	}
	kept := 0
	for k := range st.Points {
		if strings.HasPrefix(k, "d") {
			kept++
		}
	}
	if kept != keepPoints {
		t.Fatalf("kept %d warm points, want keepPoints=%d", kept, keepPoints)
	}
	for i := 0; i < keepPoints+extra; i++ { // the oldest go first
		if _, ok := st.Points[fmt.Sprintf("d%d", i)]; ok != (i >= extra) {
			t.Fatalf("warm point d%d kept = %v, want only the newest %d kept", i, ok, keepPoints)
		}
	}
}

// TestJournalJobIDsNeverCollide: ids minted after a reopen must not
// collide with ids referenced by surviving records of compacted jobs.
func TestJournalJobIDsNeverCollide(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	var last string
	for i := 0; i < 3; i++ {
		jid, _ := j.AppendJob(json.RawMessage(`{}`))
		j.AppendPoint(jid, fmt.Sprintf("k%d", i), pt(1024, int64(i)))
		j.AppendDone(jid)
		last = jid
	}
	j.Close()

	j2, _ := mustOpen(t, dir, Options{})
	defer j2.Close()
	jid, _ := j2.AppendJob(json.RawMessage(`{}`))
	if jid == last {
		t.Fatalf("minted id %s collides with a pre-restart job", jid)
	}
}
