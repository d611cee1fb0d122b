// Package serve exposes the core job scheduler over HTTP/JSON: sweep
// submission with streamed results, job status and cancellation, cache
// statistics and health. It is the cellserve binary's handler layer,
// kept separate so httptest can drive it in-process.
//
// The server degrades instead of dying: a full job queue answers 429
// with Retry-After, over-budget clients answer 429, and a grid point
// that deadlocks or panics comes back as a structured error body
// carrying the watchdog's diagnostic log — the worker that ran it
// stays alive for the next request.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/core"
	"cellbe/internal/fault"
	"cellbe/internal/journal"
	"cellbe/internal/sim"
)

// Options configures a Server. Sched is the only required field; the
// caller owns its lifetime (cellserve closes it after HTTP shutdown so
// in-flight jobs drain first).
type Options struct {
	// Sched runs the simulations. Required.
	Sched *core.Scheduler
	// RatePerSec and RateBurst shape the per-client token bucket guarding
	// the submission endpoints; RatePerSec <= 0 disables rate limiting.
	// Clients are keyed by X-API-Key when present, else by remote host.
	// Because the API key is client-chosen, every request also spends
	// from a coarser per-host bucket with hostRateFactor times the
	// budget, so spraying fresh keys from one address cannot mint
	// unlimited bursts.
	RatePerSec float64
	RateBurst  int
	// MaxPoints caps the grid size of one request; <= 0 defaults to 4096.
	MaxPoints int
	// MaxCycles caps (and, when a request leaves its budget unset,
	// supplies) the per-point watchdog budget, so a wedged scenario
	// terminates with a deadlock diagnostic instead of pinning a worker
	// forever. 0 leaves request budgets alone.
	MaxCycles sim.Time
	// MaxVolume caps the per-SPE byte volume of one request; <= 0
	// defaults to 64 MiB.
	MaxVolume int64
	// Journal, when set, feeds the readiness probe: a journal whose
	// appends are failing flips /healthz/ready to 503 (the instance keeps
	// serving — liveness stays green — but load balancers stop routing
	// new sweeps to a node that can no longer make them durable).
	Journal *journal.Journal
}

func (o Options) maxPoints() int {
	if o.MaxPoints <= 0 {
		return 4096
	}
	return o.MaxPoints
}

func (o Options) maxVolume() int64 {
	if o.MaxVolume <= 0 {
		return 64 << 20
	}
	return o.MaxVolume
}

// maxBody caps the request body.
const maxBody = 1 << 20

// hostRateFactor scales the per-host rate limit relative to the
// per-client one: a single address gets at most this many clients' worth
// of budget, however many distinct API keys it presents.
const hostRateFactor = 16

// Server is the HTTP handler set. Create with New.
type Server struct {
	opts        Options
	sched       *core.Scheduler
	limiter     *rateLimiter // per client (API key or remote host)
	hostLimiter *rateLimiter // per remote host, hostRateFactor times wider
	mux         *http.ServeMux
}

// New builds the handler set over opts.Sched.
func New(opts Options) *Server {
	s := &Server{
		opts:  opts,
		sched: opts.Sched,
	}
	if opts.RatePerSec > 0 {
		burst := opts.RateBurst
		if burst < 1 {
			burst = 1
		}
		s.limiter = newRateLimiter(opts.RatePerSec, burst)
		s.hostLimiter = newRateLimiter(opts.RatePerSec*hostRateFactor, burst*hostRateFactor)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("POST /v1/scenarios", s.handleScenario)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SweepRequest is the submission body for /v1/sweeps and /v1/scenarios.
// Seeds may be listed explicitly or expanded from seed_count/first_seed
// (the cellbench convention); faults is a fault.ParseSpec string like
// "mfc=0.01,xdr=0.05". Config is a partial cell.Config overlay, decoded
// by cell.ParseConfig: fields it sets override the server's default
// machine, fields it omits keep their calibrated values, so {} (or
// omitting it) means the default dual-Cell blade; an unknown key or a
// Layout is a 400.
type SweepRequest struct {
	Scenario  string          `json:"scenario"`
	SPEs      int             `json:"spes"`
	Op        string          `json:"op,omitempty"`
	List      bool            `json:"list,omitempty"`
	Chunks    []int           `json:"chunks"`
	Seeds     []int64         `json:"seeds,omitempty"`
	SeedCount int             `json:"seed_count,omitempty"`
	FirstSeed int64           `json:"first_seed,omitempty"`
	Volume    int64           `json:"volume"`
	MaxCycles sim.Time        `json:"max_cycles,omitempty"`
	Faults    string          `json:"faults,omitempty"`
	FaultSeed int64           `json:"fault_seed,omitempty"`
	Config    json.RawMessage `json:"config,omitempty"`
	// Workload-library knobs: ring is the qcd halo-exchange neighbour
	// distance, addr_seeds pins per-SPE address-stream seeds, pattern is
	// the explicit phase program of the "pattern" scenario kind.
	Ring      int           `json:"ring,omitempty"`
	AddrSeeds []int64       `json:"addr_seeds,omitempty"`
	Pattern   *cell.Pattern `json:"pattern,omitempty"`
}

// Point is one grid point on the wire. Failed points carry error/code/log
// instead of the numeric fields.
type Point struct {
	Chunk      int      `json:"chunk"`
	Seed       int64    `json:"seed"`
	Cycles     sim.Time `json:"cycles,omitempty"`
	GBps       float64  `json:"gbps,omitempty"`
	Transfers  int64    `json:"transfers,omitempty"`
	WaitCycles sim.Time `json:"wait_cycles,omitempty"`
	Commands   int64    `json:"commands,omitempty"`
	FaultSeed  int64    `json:"fault_seed,omitempty"`
	Attempts   int      `json:"attempts,omitempty"`
	Cached     bool     `json:"cached,omitempty"`
	Error      string   `json:"error,omitempty"`
	Code       string   `json:"code,omitempty"`
	Log        []string `json:"log,omitempty"`
}

func toPoint(pr core.PointResult) Point {
	p := Point{
		Chunk:      pr.Chunk,
		Seed:       pr.Seed,
		Cycles:     pr.Cycles,
		GBps:       pr.GBps,
		Transfers:  pr.Transfers,
		WaitCycles: pr.WaitCycles,
		Commands:   pr.Commands,
		FaultSeed:  pr.FaultSeed,
		Cached:     pr.Cached,
	}
	if pr.Attempts > 1 {
		// Surface retries only: attempts=1 on every point would be noise.
		p.Attempts = pr.Attempts
	}
	if pr.Err != nil {
		p.Error = pr.Err.Error()
		p.Code = core.FailureCode(pr.Err)
		p.Log = pr.Log
	}
	return p
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string   `json:"error"`
	Code  string   `json:"code"`
	Log   []string `json:"log,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Code: code})
}

// remoteHost extracts the connection's host for the per-host limiter —
// the one identity a key-spraying client cannot choose.
func remoteHost(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return host
}

// clientKey identifies the caller for rate limiting: the API key when
// one is presented, otherwise the remote host.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	return "addr:" + remoteHost(r)
}

// admit runs the rate limiters for submission endpoints: the wide
// per-host bucket first (so arbitrarily many sprayed API keys still
// drain one budget), then the per-client bucket. It reports whether the
// request may proceed, answering 429 itself when not.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	ok, wait := s.hostLimiter.allow("addr:" + remoteHost(r))
	if ok {
		ok, wait = s.limiter.allow(clientKey(r))
	}
	if ok {
		return true
	}
	secs := int(wait/time.Second) + 1
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeError(w, http.StatusTooManyRequests, "rate_limited",
		fmt.Sprintf("client over rate limit; retry in %ds", secs))
	return false
}

// decode parses a submission body into req, answering 400 itself on
// malformed input.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req *SweepRequest) bool {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding request: "+err.Error())
		return false
	}
	return true
}

// spec turns a request into a validated SweepSpec, enforcing the
// server's grid, volume and cycle-budget caps.
func (s *Server) spec(req *SweepRequest) (core.SweepSpec, error) {
	// Validate the grid size from counts alone, before materializing
	// anything: seed_count is attacker-controlled and must never drive
	// an allocation, or one small request body OOMs the server.
	nSeeds := len(req.Seeds)
	if nSeeds == 0 {
		nSeeds = req.SeedCount
		if nSeeds <= 0 {
			nSeeds = 1
		}
	}
	if len(req.Chunks) == 0 {
		return core.SweepSpec{}, fmt.Errorf("chunks: at least one chunk size required")
	}
	if nSeeds > s.opts.maxPoints() {
		return core.SweepSpec{}, fmt.Errorf("grid of %d seeds x %d chunks exceeds the server's limit of %d points",
			nSeeds, len(req.Chunks), s.opts.maxPoints())
	}
	if grid := len(req.Chunks) * nSeeds; grid > s.opts.maxPoints() {
		return core.SweepSpec{}, fmt.Errorf("grid of %d points exceeds the server's limit of %d",
			grid, s.opts.maxPoints())
	}
	if req.Volume > s.opts.maxVolume() {
		return core.SweepSpec{}, fmt.Errorf("volume %d exceeds the server's limit of %d",
			req.Volume, s.opts.maxVolume())
	}
	if req.Pattern != nil {
		// Explicit phase programs bypass the Volume knob, so cap their
		// accounted per-SPE traffic the same way Volume is capped; the
		// grid cap already bounds AddrSeeds via spes <= NumSPEs.
		if lb := req.Pattern.LaneBytes(); lb > s.opts.maxVolume() {
			return core.SweepSpec{}, fmt.Errorf("pattern moves %d bytes per SPE, exceeding the server's limit of %d",
				lb, s.opts.maxVolume())
		}
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = make([]int64, nSeeds)
		for i := range seeds {
			seeds[i] = req.FirstSeed + int64(i)
		}
	}
	// A request config is a partial overlay (cell.ParseConfig), so
	// {"ClockGHz": 3.2} adjusts one knob without the client restating the
	// whole machine, and {} means the default machine.
	cfg := cell.DefaultConfig()
	if len(req.Config) > 0 {
		var err error
		if cfg, err = cell.ParseConfig(req.Config); err != nil {
			return core.SweepSpec{}, fmt.Errorf("config: %w", err)
		}
	}
	if req.Faults != "" {
		fc, err := fault.ParseSpec(req.Faults)
		if err != nil {
			return core.SweepSpec{}, fmt.Errorf("faults: %w", err)
		}
		cfg.Faults = fc
	}
	if req.FaultSeed != 0 {
		cfg.FaultSeed = req.FaultSeed
	}
	budget := req.MaxCycles
	if limit := s.opts.MaxCycles; limit > 0 && (budget <= 0 || budget > limit) {
		budget = limit
	}
	return core.SweepSpec{
		Scenario:  req.Scenario,
		SPEs:      req.SPEs,
		Op:        req.Op,
		List:      req.List,
		Chunks:    req.Chunks,
		Seeds:     seeds,
		Volume:    req.Volume,
		Ring:      req.Ring,
		AddrSeeds: req.AddrSeeds,
		Pattern:   req.Pattern,
		Base:      &cfg,
		MaxCycles: budget,
	}, nil
}

// parse turns a submission body into a sweep the scheduler accepts —
// decode, the server's caps, then SweepSpec.Validate — answering 400
// itself on any rejection.
func (s *Server) parse(w http.ResponseWriter, r *http.Request) (core.SweepSpec, bool) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return core.SweepSpec{}, false
	}
	spec, err := s.spec(&req)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return core.SweepSpec{}, false
	}
	return spec, true
}

// submit runs admission + decoding + scheduling for the submission
// endpoints, answering the error responses itself. A nil job means the
// response is already written.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) *core.Job {
	if !s.admit(w, r) {
		return nil
	}
	spec, ok := s.parse(w, r)
	if !ok {
		return nil
	}
	// The request context drives the job: a client that disconnects
	// mid-stream cancels its remaining grid points.
	job, err := s.sched.Submit(r.Context(), spec)
	switch {
	case err == nil:
		return job
	case errors.Is(err, core.ErrQueueFull):
		// Jitter the retry hint across [1, 4] seconds: every client
		// hitting a full queue gets a different comeback time, so the
		// herd that filled the queue does not return as one thundering
		// wave and fill it again.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", 1+rand.IntN(4)))
		writeError(w, http.StatusTooManyRequests, "queue_full",
			"job queue is full; retry shortly")
	case errors.Is(err, core.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "shutting_down",
			"scheduler is shutting down")
	default:
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	}
	return nil
}

// sweepHeader opens an NDJSON stream; sweepTrailer closes it.
type sweepHeader struct {
	Job    string `json:"job"`
	Points int    `json:"points"`
}

type sweepTrailer struct {
	Done      bool `json:"done"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed"`
	Cached    int  `json:"cached"`
	Skipped   int  `json:"skipped"`
}

// handleSweep submits a sweep. The default response is an NDJSON stream
// — one header line, one line per grid point as it completes, one
// trailer line — so a client watches a long sweep land point by point.
// ?wait=1 buffers instead and answers one JSON document: 200 when every
// point succeeded, 207 when some failed.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	job := s.submit(w, r)
	if job == nil {
		return
	}
	w.Header().Set("X-Job-Id", job.ID)
	if r.URL.Query().Get("wait") != "" {
		s.sweepWait(w, job)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Lines are flushed only before the stream waits on a result that is
	// not ready yet: the header reaches the client before any simulation
	// it waits on, the hits admission delivered ride out with it, and a
	// job the cache answered whole leaves in one write when the handler
	// returns, trailer included.
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	enc.Encode(sweepHeader{Job: job.ID, Points: job.Total()})
	results := job.Results()
	for {
		var pr core.PointResult
		var ok bool
		select {
		case pr, ok = <-results:
		default:
			if flusher != nil {
				flusher.Flush()
			}
			pr, ok = <-results
		}
		if !ok {
			break
		}
		enc.Encode(toPoint(pr))
	}
	st := job.Status()
	enc.Encode(sweepTrailer{
		Done:      true,
		Completed: st.Completed,
		Failed:    st.Failed,
		Cached:    st.Cached,
		Skipped:   st.Skipped,
	})
}

// sweepResponse is the buffered (?wait=1) sweep answer.
type sweepResponse struct {
	Job     string         `json:"job"`
	Status  core.JobStatus `json:"status"`
	Results []Point        `json:"results"`
}

func (s *Server) sweepWait(w http.ResponseWriter, job *core.Job) {
	var points []Point
	failed := 0
	for pr := range job.Results() {
		if pr.Err != nil {
			failed++
		}
		points = append(points, toPoint(pr))
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].Chunk != points[j].Chunk {
			return points[i].Chunk < points[j].Chunk
		}
		return points[i].Seed < points[j].Seed
	})
	status := http.StatusOK
	if failed > 0 {
		status = http.StatusMultiStatus
	}
	writeJSON(w, status, sweepResponse{Job: job.ID, Status: job.Status(), Results: points})
}

// handleScenario runs one grid point synchronously. A deadlocked or
// panicking simulation answers 422 with the watchdog's diagnostic log in
// the body — the server (and the worker that ran the point) keeps
// serving.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	job := s.submit(w, r)
	if job == nil {
		return
	}
	if job.Total() != 1 {
		// More than one point is a sweep; the stream endpoint owns those.
		job.Cancel()
		for range job.Results() {
		}
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("scenario request resolves to %d grid points, want exactly 1 (use /v1/sweeps)", job.Total()))
		return
	}
	w.Header().Set("X-Job-Id", job.ID)
	var res core.PointResult
	ok := false
	for pr := range job.Results() {
		res, ok = pr, true
	}
	if !ok {
		// Client went away before the point ran; nobody reads this.
		writeError(w, http.StatusRequestTimeout, "cancelled", "request cancelled before the point ran")
		return
	}
	if res.Err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{
			Error: res.Err.Error(),
			Code:  core.FailureCode(res.Err),
			Log:   res.Log,
		})
		return
	}
	writeJSON(w, http.StatusOK, toPoint(res))
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.CacheStats())
}

// handleHealthz is the legacy combined probe, kept for existing
// monitors; new deployments point liveness at /healthz/live and
// readiness at /healthz/ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":          true,
		"active_jobs": s.sched.Active(),
	})
}

// handleLive is the liveness probe: the process is up and the handler
// stack answers. It never consults the scheduler or journal — a node
// that is degraded but alive must not be restarted by its orchestrator.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// readyBody is the readiness probe's response: whether this node should
// receive new work, with the queue depth and journal health that
// explain the verdict.
type readyBody struct {
	Ready bool `json:"ready"`
	// Reason says why Ready is false; empty when ready.
	Reason string `json:"reason,omitempty"`
	// ActiveJobs and PendingPoints are the scheduler's queue depth: jobs
	// admitted and grid points not yet delivered.
	ActiveJobs    int   `json:"active_jobs"`
	PendingPoints int64 `json:"pending_points"`
	// Journal reports append/sync counters, the unsynced-record lag and
	// the last append error; absent when the server runs without a
	// journal.
	Journal *journal.Health `json:"journal,omitempty"`
}

// handleReady is the readiness probe: 200 while the node can accept and
// durably record new sweeps, 503 once the scheduler is shutting down or
// the journal's appends are failing (sticky until an append succeeds).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	var body readyBody
	body.Ready = true
	body.ActiveJobs, body.PendingPoints = s.sched.Depth()
	if s.sched.Closed() {
		body.Ready = false
		body.Reason = "scheduler is shutting down"
	}
	if s.opts.Journal != nil {
		h := s.opts.Journal.Health()
		body.Journal = &h
		if body.Ready && h.LastError != "" {
			body.Ready = false
			body.Reason = "journal degraded: " + h.LastError
		}
	}
	status := http.StatusOK
	if !body.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}
