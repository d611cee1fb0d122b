package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellbe/internal/core"
	"cellbe/internal/journal"
	"cellbe/internal/serve"
)

// TestRetryAfterJitterRange: every queue-full 429 must advise a
// Retry-After in [1, 4] seconds, and the advice must actually vary —
// a fixed value would synchronize the retrying herd into a second wave.
func TestRetryAfterJitterRange(t *testing.T) {
	gate := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(gate) })
	defer releaseAll()
	entered := make(chan struct{}, 16)
	ts, _ := newTestServer(t,
		core.SchedOptions{
			Workers: 1,
			MaxJobs: 1,
			BeforePoint: func(int, int64) {
				entered <- struct{}{}
				<-gate
			},
		},
		serve.Options{})

	go http.Post(ts.URL+"/v1/sweeps?wait=1", "application/json", strings.NewReader(sweepBody()))
	<-entered // the only job slot is now held

	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		resp := postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody())
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429", i, resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("request %d: Retry-After %q not an integer", i, resp.Header.Get("Retry-After"))
		}
		if ra < 1 || ra > 4 {
			t.Fatalf("request %d: Retry-After %d outside the documented [1, 4]", i, ra)
		}
		seen[ra] = true
		resp.Body.Close()
	}
	if len(seen) < 2 {
		t.Fatalf("40 queue-full responses all advised the same Retry-After %v — jitter is not wired", seen)
	}
}

// TestHealthProbes: liveness answers 200 as long as the process serves;
// readiness flips to 503 when the journal degrades and recovers when
// appends succeed again, and goes dark for good on shutdown — while
// liveness stays green so the orchestrator drains instead of killing.
func TestHealthProbes(t *testing.T) {
	var failWrites atomic.Bool
	jr, _, err := journal.Open(t.TempDir(), journal.Options{
		RetrySleep: func(time.Duration) {},
		WriteErr: func(op string) error {
			if failWrites.Load() {
				return fmt.Errorf("injected %s write failure", op)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	ts, sched := newTestServer(t,
		core.SchedOptions{Workers: 2, Journal: jr},
		serve.Options{Journal: jr})

	assertReady := func(wantStatus int, wantReady bool) serveReadyBody {
		t.Helper()
		resp := mustGet(t, ts.URL+"/healthz/ready")
		if resp.StatusCode != wantStatus {
			t.Fatalf("/healthz/ready status %d, want %d", resp.StatusCode, wantStatus)
		}
		body := decodeBody[serveReadyBody](t, resp)
		if body.Ready != wantReady {
			t.Fatalf("/healthz/ready body %+v, want ready=%v", body, wantReady)
		}
		return body
	}

	if resp := mustGet(t, ts.URL+"/healthz/live"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz/live status %d, want 200", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	body := assertReady(http.StatusOK, true)
	if body.Journal == nil {
		t.Fatal("ready body missing journal health on a journaled server")
	}

	// Degrade the journal: the next submission's job append fails past
	// its retries and the error sticks.
	failWrites.Store(true)
	decodeBody[waitResponse](t, postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody()))
	body = assertReady(http.StatusServiceUnavailable, false)
	if !strings.Contains(body.Reason, "journal degraded") {
		t.Fatalf("unready reason %q does not name the journal", body.Reason)
	}

	// Heal it: a successful append clears the sticky error.
	failWrites.Store(false)
	decodeBody[waitResponse](t, postJSON(t, ts.URL+"/v1/sweeps?wait=1",
		`{"scenario":"cycle","spes":4,"chunks":[2048],"seeds":[0],"volume":131072}`))
	assertReady(http.StatusOK, true)

	// Shutdown: readiness goes dark, liveness does not.
	sched.Close()
	body = assertReady(http.StatusServiceUnavailable, false)
	if !strings.Contains(body.Reason, "shutting down") {
		t.Fatalf("unready reason %q does not name shutdown", body.Reason)
	}
	if resp := mustGet(t, ts.URL+"/healthz/live"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz/live during shutdown: status %d, want 200", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// serveReadyBody mirrors the readiness response for decoding.
type serveReadyBody struct {
	Ready         bool            `json:"ready"`
	Reason        string          `json:"reason"`
	ActiveJobs    int             `json:"active_jobs"`
	PendingPoints int64           `json:"pending_points"`
	Journal       *journal.Health `json:"journal"`
}

// TestPointAttemptsOnWire: a retried point reports its attempt count in
// the response; first-try points omit the field.
func TestPointAttemptsOnWire(t *testing.T) {
	ts, _ := newTestServer(t,
		core.SchedOptions{
			Workers: 2,
			Retry:   core.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}},
			FailPoint: func(chunk int, seed int64, attempt int) error {
				if chunk == 1024 && seed == 0 && attempt == 0 {
					return &core.TransientError{Err: fmt.Errorf("flaky once")}
				}
				return nil
			},
		},
		serve.Options{})
	got := decodeBody[waitResponse](t, postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody()))
	if got.Status.Failed != 0 || got.Status.Retried != 1 {
		t.Fatalf("status %+v, want retried=1 failed=0", got.Status)
	}
	for _, p := range got.Results {
		want := 0
		if p.Chunk == 1024 && p.Seed == 0 {
			want = 2
		}
		if p.Attempts != want {
			t.Errorf("point chunk=%d seed=%d: attempts %d on the wire, want %d", p.Chunk, p.Seed, p.Attempts, want)
		}
	}
}

// TestGracefulDrainStream is the shutdown-with-in-flight-stream
// contract: Shutdown must wait for an open NDJSON sweep stream, the
// client must receive every line intact — valid JSON, trailer included,
// never a mid-record cut — and only then does Shutdown return.
func TestGracefulDrainStream(t *testing.T) {
	gate := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(gate) })
	defer releaseAll()
	entered := make(chan struct{}, 16)
	sched := core.NewScheduler(core.SchedOptions{
		Workers: 1,
		BeforePoint: func(int, int64) {
			entered <- struct{}{}
			<-gate
		},
	})
	defer sched.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: serve.New(serve.Options{Sched: sched})}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/sweeps", "application/json",
		strings.NewReader(sweepBody()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-entered // the stream is open and the first point is in flight

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must not cut the open stream: while the gate holds the
	// sweep, the response must stay open.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a sweep stream was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	releaseAll()

	var lines []json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if !json.Valid(line) {
			t.Fatalf("stream line %d is not valid JSON (mid-record cut?): %q", len(lines), line)
		}
		lines = append(lines, json.RawMessage(append([]byte(nil), line...)))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream ended with a transport error, not a clean EOF: %v", err)
	}
	if len(lines) != 6 { // header + 4 points + trailer
		t.Fatalf("stream delivered %d lines, want 6", len(lines))
	}
	var trailer struct {
		Done      bool `json:"done"`
		Completed int  `json:"completed"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done || trailer.Completed != 4 {
		t.Fatalf("stream's last line is not a done trailer: %s (err %v)", lines[len(lines)-1], err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}
