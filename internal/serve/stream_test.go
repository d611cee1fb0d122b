package serve_test

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellbe/internal/core"
	"cellbe/internal/journal"
	"cellbe/internal/serve"
)

// flushRecorder is a ResponseRecorder that counts Flush calls and sends
// the body as it stood at each one on flushed.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
	flushed chan string
}

func newFlushRecorder() *flushRecorder {
	return &flushRecorder{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan string, 16)}
}

func (f *flushRecorder) Flush() {
	f.flushes++
	f.flushed <- f.Body.String()
	f.ResponseRecorder.Flush()
}

// streamSweep serves one NDJSON sweep request on a flushRecorder in the
// background; wait blocks until the handler returns.
func streamSweep(srv *serve.Server, body string) (rec *flushRecorder, wait func()) {
	rec = newFlushRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(body)))
	}()
	return rec, func() { <-done }
}

// nextFlush returns the body at the recorder's next Flush.
func nextFlush(t *testing.T, rec *flushRecorder) string {
	t.Helper()
	select {
	case body := <-rec.flushed:
		return body
	case <-time.After(30 * time.Second):
		t.Fatal("no Flush while the stream waits on a held point")
		return ""
	}
}

// heldScheduler is a one-worker journaled scheduler whose BeforePoint
// holds every point once hold is called, until the returned release.
func heldScheduler(t *testing.T) (srv *serve.Server, hold func(), release func()) {
	t.Helper()
	jr, _, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jr.Close() })
	var held atomic.Bool
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	sched := core.NewScheduler(core.SchedOptions{
		Workers: 1, CachePoints: 64, Journal: jr,
		BeforePoint: func(int, int64) {
			if held.Load() {
				<-gate
			}
		},
	})
	t.Cleanup(sched.Close)
	t.Cleanup(release) // runs first: Close waits for the held points
	return serve.New(serve.Options{Sched: sched, Journal: jr}), func() { held.Store(true) }, release
}

// TestSweepStreamGolden: the NDJSON bodies of a simulated sweep and of
// its fully cached resubmission are byte-identical to the recorded ones,
// and the cached answer is written without a single Flush: every line is
// ready when the job is admitted. Regenerate with:
// UPDATE_GOLDEN=1 go test ./internal/serve -run StreamGolden
func TestSweepStreamGolden(t *testing.T) {
	srv, _, _ := heldScheduler(t)
	miss, wait := streamSweep(srv, sweepBody())
	wait()
	hit, wait := streamSweep(srv, sweepBody())
	wait()
	got := miss.Body.String() + hit.Body.String()
	golden := filepath.Join("testdata", "sweep_stream.golden.ndjson")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Fatalf("sweep streams diverge from %s:\n got %s\nwant %s", golden, got, want)
	}
	if lines := strings.Count(hit.Body.String(), "\n"); lines != 6 || !strings.Contains(hit.Body.String(), `"cached":4`) {
		t.Fatalf("cached resubmission: %d lines, want 6 ending in \"cached\":4:\n%s", lines, hit.Body)
	}
	if hit.flushes != 0 {
		t.Errorf("fully cached sweep flushed %d times, want 0: its answer is ready at admission", hit.flushes)
	}
}

// TestSweepHeaderFlushedBeforeHeldPoint: a journaled miss held in
// BeforePoint still lets the client see the header, flushed before the
// hook is released.
func TestSweepHeaderFlushedBeforeHeldPoint(t *testing.T) {
	srv, hold, release := heldScheduler(t)
	hold()
	rec, wait := streamSweep(srv, sweepBody())
	first := nextFlush(t, rec)
	if !strings.HasPrefix(first, `{"job":`) || strings.Count(first, "\n") != 1 {
		t.Fatalf("first flush sent %q, want the header line alone", first)
	}
	release()
	wait()
	if lines := strings.Count(rec.Body.String(), "\n"); lines != 6 {
		t.Fatalf("stream has %d lines, want 6:\n%s", lines, rec.Body)
	}
}

// TestSweepHitsRideTheHeaderFlush: a 4-point job with 2 warm points
// delivers both hits in the flush that carries its header, before any
// miss has run.
func TestSweepHitsRideTheHeaderFlush(t *testing.T) {
	srv, hold, release := heldScheduler(t)
	_, wait := streamSweep(srv, `{"scenario":"cycle","spes":4,"chunks":[1024],"seeds":[0,1],"volume":131072}`)
	wait()
	hold()
	rec, wait := streamSweep(srv, sweepBody())
	first := nextFlush(t, rec)
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], `{"job":`) ||
		!strings.Contains(lines[1], `"cached":true`) || !strings.Contains(lines[2], `"cached":true`) {
		t.Fatalf("first flush sent %q, want the header and the two hits", first)
	}
	release()
	wait()
	body := rec.Body.Bytes()
	if n := bytes.Count(body, []byte("\n")); n != 6 || !bytes.Contains(body, []byte(`"cached":2`)) {
		t.Fatalf("stream has %d lines, want 6 ending in \"cached\":2:\n%s", n, body)
	}
}
