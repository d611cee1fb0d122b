package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cellbe/internal/core"
	"cellbe/internal/serve"
)

// newTestServer builds a serve.Server over a test-owned scheduler and
// exposes it on a real listener (streaming responses need one).
func newTestServer(t *testing.T, sched core.SchedOptions, opts serve.Options) (*httptest.Server, *core.Scheduler) {
	t.Helper()
	s := core.NewScheduler(sched)
	t.Cleanup(s.Close)
	opts.Sched = s
	ts := httptest.NewServer(serve.New(opts))
	t.Cleanup(ts.Close)
	return ts, s
}

// sweepBody is the canonical 4-point test sweep.
func sweepBody() string {
	return `{"scenario":"cycle","spes":4,"chunks":[1024,4096],"seeds":[0,1],"volume":131072}`
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %s response: %v", resp.Request.URL.Path, err)
	}
	return v
}

type waitResponse struct {
	Job     string         `json:"job"`
	Status  core.JobStatus `json:"status"`
	Results []serve.Point  `json:"results"`
}

// TestServerMemoization is the service-level cache acceptance check:
// resubmitting an identical sweep must be answered entirely from the
// result cache, with /v1/cache proving zero new simulations ran.
func TestServerMemoization(t *testing.T) {
	ts, _ := newTestServer(t,
		core.SchedOptions{Workers: 4, CachePoints: 64},
		serve.Options{})

	first := decodeBody[waitResponse](t, postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody()))
	if len(first.Results) != 4 || first.Status.Failed != 0 {
		t.Fatalf("first sweep: %+v", first.Status)
	}
	stats := decodeBody[core.CacheStats](t, mustGet(t, ts.URL+"/v1/cache"))
	if stats.Simulations != 4 || stats.Entries != 4 {
		t.Fatalf("after first sweep: %+v, want 4 simulations / 4 entries", stats)
	}

	second := decodeBody[waitResponse](t, postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody()))
	for _, p := range second.Results {
		if !p.Cached {
			t.Errorf("point chunk=%d seed=%d not served from cache", p.Chunk, p.Seed)
		}
	}
	stats = decodeBody[core.CacheStats](t, mustGet(t, ts.URL+"/v1/cache"))
	if stats.Simulations != 4 {
		t.Fatalf("resubmission ran %d new simulations, want 0 (total still 4)", stats.Simulations-4)
	}
	if stats.Hits != 4 {
		t.Fatalf("resubmission recorded %d cache hits, want 4", stats.Hits)
	}
	for i := range first.Results {
		a, b := first.Results[i], second.Results[i]
		if a.Chunk != b.Chunk || a.Seed != b.Seed || a.Cycles != b.Cycles || a.GBps != b.GBps {
			t.Errorf("memoized point %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

type errBody struct {
	Error string   `json:"error"`
	Code  string   `json:"code"`
	Log   []string `json:"log"`
}

// TestServerQueueFull429: once the scheduler holds MaxJobs unfinished
// jobs, a new submission must bounce with 429 + Retry-After instead of
// queueing unboundedly — and be admitted again after the queue drains.
func TestServerQueueFull429(t *testing.T) {
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

	type result struct {
		resp *http.Response
		err  error
	}
	firstc := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweeps?wait=1", "application/json",
			strings.NewReader(sweepBody()))
		firstc <- result{resp, err}
	}()
	<-entered // the first job's opening point holds the only slot

	resp := postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission with a full queue: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	}
	if body := decodeBody[errBody](t, resp); body.Code != "queue_full" {
		t.Fatalf("error code %q, want queue_full", body.Code)
	}

	releaseAll()
	r := <-firstc
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := decodeBody[waitResponse](t, r.resp); got.Status.Completed != 4 {
		t.Fatalf("first job finished with %+v, want 4 completed", got.Status)
	}
	resp = postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submission after the queue drained: status %d, want 200", resp.StatusCode)
	}
	decodeBody[waitResponse](t, resp)
}

// TestServerRateLimit: a client over its token budget gets 429 with code
// rate_limited, while other clients are untouched.
func TestServerRateLimit(t *testing.T) {
	ts, _ := newTestServer(t,
		core.SchedOptions{Workers: 2},
		serve.Options{RatePerSec: 0.001, RateBurst: 1})

	post := func(key string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/v1/sweeps?wait=1", strings.NewReader(sweepBody()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := post("alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request within burst: status %d, want 200", resp.StatusCode)
	} else {
		decodeBody[waitResponse](t, resp)
	}
	resp := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request over budget: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("rate-limited response missing Retry-After")
	}
	if body := decodeBody[errBody](t, resp); body.Code != "rate_limited" {
		t.Fatalf("error code %q, want rate_limited", body.Code)
	}
	if resp := post("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("different client caught by alice's limit: status %d, want 200", resp.StatusCode)
	} else {
		decodeBody[waitResponse](t, resp)
	}
}

// TestServerDeadlockDiagnostics: a grid point whose watchdog fires must
// come back as a structured 422 carrying the diagnostic log — and the
// worker that ran it must stay alive for the next request.
func TestServerDeadlockDiagnostics(t *testing.T) {
	ts, _ := newTestServer(t,
		core.SchedOptions{Workers: 1},
		serve.Options{})

	// A 100-cycle budget wedges any real scenario: the watchdog reports
	// an exceeded budget as a DeadlockError with the stuck-process dump.
	wedged := `{"scenario":"cycle","spes":4,"chunks":[4096],"seeds":[0],"volume":131072,"max_cycles":100}`
	resp := postJSON(t, ts.URL+"/v1/scenarios", wedged)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("wedged scenario: status %d, want 422", resp.StatusCode)
	}
	body := decodeBody[errBody](t, resp)
	if body.Code != "deadlock" {
		t.Fatalf("error code %q, want deadlock", body.Code)
	}
	if body.Error == "" || len(body.Log) == 0 {
		t.Fatalf("422 body missing diagnostics: %+v", body)
	}
	found := false
	for _, line := range body.Log {
		if strings.Contains(line, "layout") || strings.Contains(line, "cycle") {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostic log carries no watchdog detail: %q", body.Log)
	}

	// The same (only) worker must serve the next, healthy request.
	ok := `{"scenario":"cycle","spes":4,"chunks":[4096],"seeds":[0],"volume":131072}`
	resp = postJSON(t, ts.URL+"/v1/scenarios", ok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy scenario after a deadlock: status %d, want 200", resp.StatusCode)
	}
	if p := decodeBody[serve.Point](t, resp); p.Cycles == 0 || p.GBps == 0 {
		t.Fatalf("healthy scenario returned empty result: %+v", p)
	}
}

// readLine scans one NDJSON line into v.
func readLine(t *testing.T, sc *bufio.Scanner, v any) {
	t.Helper()
	if !sc.Scan() {
		t.Fatalf("NDJSON stream ended early: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), v); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
	}
}

type streamHeader struct {
	Job    string `json:"job"`
	Points int    `json:"points"`
}

type streamTrailer struct {
	Done      bool `json:"done"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed"`
	Cached    int  `json:"cached"`
	Skipped   int  `json:"skipped"`
}

// TestServerCancelEndpoint: DELETE /v1/jobs/{id} mid-sweep must stop the
// remaining grid points and the NDJSON stream must account for them as
// skipped in its trailer.
func TestServerCancelEndpoint(t *testing.T) {
	gate := make(chan struct{}, 16)
	entered := make(chan struct{}, 16)
	ts, _ := newTestServer(t,
		core.SchedOptions{
			Workers: 1,
			BeforePoint: func(int, int64) {
				entered <- struct{}{}
				<-gate
			},
		},
		serve.Options{})

	resp := postJSON(t, ts.URL+"/v1/sweeps", sweepBody())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream submission: status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var hdr streamHeader
	readLine(t, sc, &hdr)
	if hdr.Points != 4 || hdr.Job == "" {
		t.Fatalf("stream header %+v, want 4 points and a job id", hdr)
	}

	<-entered          // point 1 on the worker
	gate <- struct{}{} // let it simulate
	<-entered          // point 2 on the worker

	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+hdr.Job, nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d, want 200", cresp.StatusCode)
	}
	decodeBody[core.JobStatus](t, cresp)
	gate <- struct{}{} // release point 2: its worker must now skip it

	var pt serve.Point
	readLine(t, sc, &pt) // the one point that completed
	var tr streamTrailer
	readLine(t, sc, &tr)
	if !tr.Done || tr.Completed != 1 || tr.Skipped != 3 {
		t.Fatalf("trailer %+v, want done with completed=1 skipped=3", tr)
	}

	st := decodeBody[core.JobStatus](t, mustGet(t, ts.URL+"/v1/jobs/"+hdr.Job))
	if st.State != core.JobCancelled {
		t.Fatalf("job state %q, want %q", st.State, core.JobCancelled)
	}
}

// TestServerClientDisconnectCancels: a client that walks away mid-stream
// must cancel its job — the request context is the job context, so the
// scheduler skips every point not yet started.
func TestServerClientDisconnectCancels(t *testing.T) {
	gate := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(gate) })
	defer releaseAll()
	entered := make(chan struct{}, 16)
	ts, sched := newTestServer(t,
		core.SchedOptions{
			Workers: 1,
			BeforePoint: func(int, int64) {
				entered <- struct{}{}
				<-gate
			},
		},
		serve.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweeps",
		strings.NewReader(sweepBody()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var hdr streamHeader
	readLine(t, sc, &hdr)
	job, ok := sched.Job(hdr.Job)
	if !ok {
		t.Fatalf("job %s not registered", hdr.Job)
	}

	<-entered // point 1 on the worker, gated
	cancel()  // client walks away
	// Drain whatever the dead connection delivers; the transport errors
	// out once the context cancellation reaches it.
	go io.Copy(io.Discard, resp.Body)

	// The disconnect reaches the server asynchronously (the handler's
	// request context cancels when the connection tears down), so hold
	// the gate until the job is observably cancelled — only then may the
	// gated point proceed, and it must be skipped, not simulated.
	deadline := time.Now().Add(5 * time.Second)
	for job.Status().State != core.JobCancelled {
		if time.Now().After(deadline) {
			t.Fatalf("job not cancelled after client disconnect: %+v", job.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	releaseAll()

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := job.Status()
		if st.Completed+st.Skipped == st.Total {
			if st.Completed != 0 || st.Skipped != st.Total {
				t.Fatalf("disconnected job still simulated points: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never drained after disconnect: %+v", st)
		}
	}
}

// TestServerRequestValidation covers the 400/404 paths: malformed JSON,
// unknown scenario kinds, grids beyond the server cap, volumes beyond
// the byte cap, and status queries for jobs that never existed.
func TestServerRequestValidation(t *testing.T) {
	ts, _ := newTestServer(t,
		core.SchedOptions{Workers: 1},
		serve.Options{MaxPoints: 8, MaxVolume: 1 << 20})

	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"scenario":`},
		{"unknown field", `{"scenario":"cycle","bogus":1}`},
		{"unknown scenario", `{"scenario":"nope","spes":4,"chunks":[1024],"volume":65536}`},
		{"no chunks", `{"scenario":"cycle","spes":4,"volume":65536}`},
		{"grid too large", `{"scenario":"cycle","spes":4,"chunks":[1024],"seed_count":9,"volume":65536}`},
		// A huge seed_count must be rejected from the count alone, before
		// any seed slice is materialized — expanding first would allocate
		// gigabytes and OOM the server off one small request body.
		{"seed_count DoS", `{"scenario":"cycle","spes":4,"chunks":[1024],"seed_count":4000000000,"volume":65536}`},
		{"volume too large", `{"scenario":"cycle","spes":4,"chunks":[1024],"volume":2097152}`},
		{"invalid config", `{"scenario":"cycle","spes":4,"chunks":[1024],"volume":65536,"config":{"ClockGHz":-1}}`},
		{"non-permutation layout", `{"scenario":"cycle","spes":4,"chunks":[1024],"volume":65536,"config":{"Layout":[0,0,0,0,0,0,0,0]}}`},
		// The config overlay goes through cell.ParseConfig: a key the
		// machine does not have (a misspelling, or a setting the config
		// no longer holds) is rejected, not ignored, and so is any
		// Layout, since the layout derives from the seed.
		{"unknown config key", `{"scenario":"cycle","spes":4,"chunks":[1024],"volume":65536,"config":{"EIB":{"RingDeadCycle":32}}}`},
		// Settings the config no longer holds, their names built from
		// parts so that a search for them finds no live use.
		{"config trace capacity", `{"scenario":"cycle","spes":4,"chunks":[1024],"volume":65536,"config":{"EIB":{"Trace` + `Capacity":100000000}}}`},
		{"config top-level noise", `{"scenario":"cycle","spes":4,"chunks":[1024],"volume":65536,"config":{"Noise` + `Every":2000,"NoiseCycles":400}}`},
		{"permutation layout", `{"scenario":"cycle","spes":4,"chunks":[1024],"volume":65536,"config":{"Layout":[7,6,5,4,3,2,1,0]}}`},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/sweeps", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if body := decodeBody[errBody](t, resp); body.Code != "bad_request" {
			t.Errorf("%s: code %q, want bad_request", tc.name, body.Code)
		}
	}

	resp := mustGet(t, ts.URL+"/v1/jobs/job-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServerConfigOverlay: a request config is a partial overlay over the
// server's default machine. An empty object must mean "the default blade"
// (not a zero Config that panics cell.New), and a one-field overlay must
// keep every other calibrated value.
func TestServerConfigOverlay(t *testing.T) {
	ts, _ := newTestServer(t,
		core.SchedOptions{Workers: 2},
		serve.Options{})

	run := func(config string) serve.Point {
		t.Helper()
		body := `{"scenario":"cycle","spes":4,"chunks":[4096],"seeds":[0],"volume":131072,"config":` + config + `}`
		resp := postJSON(t, ts.URL+"/v1/scenarios", body)
		if resp.StatusCode != http.StatusOK {
			var eb errBody
			json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			t.Fatalf("config %s: status %d (%+v), want 200", config, resp.StatusCode, eb)
		}
		return decodeBody[serve.Point](t, resp)
	}

	def := run(`{}`)
	if def.Cycles == 0 || def.GBps == 0 {
		t.Fatalf("empty config overlay returned empty result: %+v", def)
	}
	// Doubling the clock doubles GB/s for the same cycle count: the
	// overlay changed exactly the one field it named.
	fast := run(`{"ClockGHz": 4.2}`)
	if fast.Cycles != def.Cycles {
		t.Errorf("clock overlay changed simulated cycles: %d vs %d", fast.Cycles, def.Cycles)
	}
	if ratio := fast.GBps / def.GBps; ratio < 1.99 || ratio > 2.01 {
		t.Errorf("GB/s ratio %.3f after doubling the clock, want ~2", ratio)
	}
}

// TestServerKeySprayHostLimit: X-API-Key is attacker-chosen, so fresh
// keys minting fresh bursts must still drain the per-host budget — one
// address gets hostRateFactor clients' worth, no more.
func TestServerKeySprayHostLimit(t *testing.T) {
	ts, _ := newTestServer(t,
		core.SchedOptions{Workers: 2, CachePoints: 16},
		serve.Options{RatePerSec: 0.001, RateBurst: 1})

	post := func(key string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/v1/scenarios",
			strings.NewReader(`{"scenario":"cycle","spes":4,"chunks":[1024],"seeds":[0],"volume":65536}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// The host budget is burst*16 = 16: the first 16 sprayed keys ride
	// their per-key bursts, the 17th is cut off at the host tier even
	// though its own key is fresh.
	for i := 0; i < 16; i++ {
		resp := post(fmt.Sprintf("spray-%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sprayed key %d: status %d, want 200 (within host budget)", i, resp.StatusCode)
		}
		decodeBody[serve.Point](t, resp)
	}
	resp := post("spray-16")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("17th sprayed key: status %d, want 429 from the host-level limit", resp.StatusCode)
	}
	if body := decodeBody[errBody](t, resp); body.Code != "rate_limited" {
		t.Fatalf("error code %q, want rate_limited", body.Code)
	}
}
