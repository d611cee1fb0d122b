package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"cellbe/internal/core"
	"cellbe/internal/journal"
	"cellbe/internal/serve"
)

// workDir is where runs keep their temporary files: inside the working
// directory, and ignored by version control.
const workDir = ".bench_build"

// serveRig is cellserve assembled in-process as the binary assembles it:
// a journal on the real disk (fsync every 8 point records), a scheduler
// with a memo cache over it, and the HTTP handler on a loopback listener.
type serveRig struct {
	dir    string
	jr     *journal.Journal
	sched  *core.Scheduler
	srv    *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

func startRig(workers int) (*serveRig, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "journal-")
	if err != nil {
		return nil, err
	}
	jr, _, err := journal.Open(dir, journal.Options{SyncEvery: 8})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sched := core.NewScheduler(core.SchedOptions{Workers: workers, MaxJobs: 16, CachePoints: 4096,
		Journal: jr, Retry: core.RetryPolicy{MaxAttempts: 3}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		jr.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	r := &serveRig{dir: dir, jr: jr, sched: sched, done: make(chan struct{}),
		url:    "http://" + ln.Addr().String() + "/v1/sweeps",
		srv:    &http.Server{Handler: serve.New(serve.Options{Sched: sched, MaxCycles: 1_000_000_000, Journal: jr})},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 60 * time.Second}}
	go func() {
		defer close(r.done)
		r.srv.Serve(ln)
	}()
	return r, nil
}

// close shuts the server down in cellserve's order (HTTP, scheduler,
// journal) and removes the journal directory.
func (r *serveRig) close() {
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
	<-r.done
	r.sched.Close()
	r.jr.Close()
	os.RemoveAll(r.dir)
}

// answer is one streamed sweep response as the client saw it.
type answer struct {
	status    int
	points    []pointOut
	header    int // points announced by the header line
	completed int // trailer counts
	failed    int
	ttfb      time.Duration // send to header line
	total     time.Duration // send to trailer
}

// header opens the stream; trailer, which starts with "done", closes it.
type header struct {
	Points int `json:"points"`
}

type trailer struct {
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
}

var trailerPrefix = []byte(`{"done":`)

// errIncomplete marks a stream that ended without a trailer.
var errIncomplete = errors.New("stream ended without a trailer")

// post sends one sweep request and reads its NDJSON stream to the
// trailer. A non-200 status returns an answer with no error: the caller
// counts it as refused.
func (r *serveRig) post(body []byte) (answer, error) {
	start := time.Now()
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		a.total = time.Since(start)
		return a, nil
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return a, errIncomplete
	}
	a.ttfb = time.Since(start)
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return a, fmt.Errorf("decoding stream header: %w", err)
	}
	a.header = h.Points
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return a, errIncomplete
		}
		if bytes.HasPrefix(line, trailerPrefix) {
			a.total = time.Since(start)
			// Points stream in completion order; put them in grid order.
			slices.SortFunc(a.points, func(p, q pointOut) int {
				return cmp.Or(cmp.Compare(p.Chunk, q.Chunk), cmp.Compare(p.Seed, q.Seed))
			})
			var t trailer
			if err := json.Unmarshal(line, &t); err != nil {
				return a, fmt.Errorf("decoding stream trailer: %w", err)
			}
			a.completed, a.failed = t.Completed, t.Failed
			return a, nil
		}
		var p serve.Point
		if err := json.Unmarshal(line, &p); err != nil {
			return a, fmt.Errorf("decoding stream point: %w", err)
		}
		if p.Error != "" {
			a.failed++
		}
		a.points = append(a.points, pointOut{Chunk: p.Chunk, Seed: p.Seed, Cycles: int64(p.Cycles),
			Transfers: p.Transfers, WaitCycles: int64(p.WaitCycles), GBps: p.GBps})
	}
}

// ok reports whether a is a complete, consistent, failure-free answer.
func (a answer) ok() bool {
	return a.status == http.StatusOK && a.failed == 0 && a.header == len(a.points) && a.completed == a.header
}
