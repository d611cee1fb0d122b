package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"cellbe/internal/core"
	"cellbe/internal/journal"
	"cellbe/internal/serve"
)

// requestShape is one kind of small sweep a serve-mixed client submits.
type requestShape struct {
	scenario, op string
	spes         int
	list         bool
	chunk        int
	layouts      int
	volume       int64
}

// serveShapes mixes warm-path element streams with cold-path kernels
// (DMA lists, memory streams, workload presets); volumes are small so
// decoding, admission, journaling and encoding are a visible share of a
// request. Each fresh request is one grid point.
var serveShapes = []requestShape{
	{"pair", "", 2, false, 4096, 1, 64 << 10},
	{"couples", "", 8, false, 2048, 1, 32 << 10},
	{"cycle", "", 8, false, 16384, 1, 32 << 10},
	{"mem", "get", 4, false, 4096, 1, 32 << 10},
	{"pair", "", 2, true, 2048, 1, 32 << 10},
	{"gups", "both", 8, false, 64, 1, 16 << 10},
	{"qcd", "", 8, false, 4096, 1, 32 << 10},
	{"stream", "triad", 8, false, 16384, 1, 32 << 10},
}

const serveBlock = 100 // requests per round of the serve-mixed workload

// sent is a fresh request a client has issued, with its first answer.
type sent struct {
	body  []byte
	first []pointOut
}

// client is one closed-loop caller: it sends its next request only when
// the previous answer has arrived. Three requests in five are verbatim
// repeats of one of its earlier fresh requests, so the median request is
// a cache hit and the slowest are fresh simulations.
//
// The workload has one client. With two on two cores, a cache hit shares
// the machine with the other client's simulation, and its latency then
// follows the host's load more than the server's work.
type client struct {
	rng     *rand.Rand
	perm    []int
	n       int
	history []*sent
}

func newClient(seed int64, id uint64) *client {
	return &client{rng: rand.New(rand.NewPCG(uint64(seed), 0x5e7e+id))}
}

// next returns the next request body; orig is the fresh request it
// repeats, nil for a fresh one.
func (c *client) next() (body []byte, orig *sent) {
	c.n++
	if c.n%5 >= 2 && len(c.history) > 0 {
		s := c.history[c.rng.IntN(len(c.history))]
		return s.body, s
	}
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(len(serveShapes))
	}
	sh := serveShapes[c.perm[0]]
	c.perm = c.perm[1:]
	req := serve.SweepRequest{Scenario: sh.scenario, SPEs: sh.spes, Op: sh.op, List: sh.list,
		Chunks: []int{sh.chunk}, Volume: sh.volume}
	for range sh.layouts {
		req.Seeds = append(req.Seeds, 1+c.rng.Int64N(1<<40))
	}
	body, _ = json.Marshal(req)
	return body, nil
}

// serveMixed drives a closed-loop client against cellserve on a loopback
// listener: a 2-worker scheduler, a memo cache, and the journal on the
// real disk.
type serveMixed struct {
	seed   int64
	rig    *serveRig
	client *client
	// Server-side counters over the last measured window.
	cache             core.CacheStats
	warm, sims        int64
	appends, syncs    int64
	requests, repeats int64
	refused           int64
	ttfb, stream      []float64
	repeatLat, fresh  []float64 // ms per answered request, by kind
}

func (w *serveMixed) setup() error {
	rig, err := startRig(2)
	if err != nil {
		return err
	}
	w.rig = rig
	w.client = newClient(w.seed, 0)
	// Warm-up pass: three fresh requests of every shape, from a stream of
	// its own so the measured client's inputs do not depend on it.
	warm := newClient(w.seed, 99)
	for range 3 * len(serveShapes) {
		body, _ := warm.next()
		a, err := w.rig.post(body)
		if err != nil {
			return err
		}
		if !a.ok() {
			return fmt.Errorf("serve-mixed: warm-up request refused or failed (status %d)", a.status)
		}
	}
	return nil
}

// exchange sends one request and checks its answer; it reports whether
// the request failed and whether it was refused.
func exchange(tr *tracer, rig *serveRig, body []byte, orig *sent, id string) (a answer, failed, refused bool) {
	start := time.Now()
	a, err := rig.post(body)
	end := time.Now()
	if tr != nil && err == nil {
		rid := tr.add("bench", "client.request", 0, id, start, end)
		tr.add("serve", "send_to_header", rid, id, start, start.Add(a.ttfb))
		tr.add("serve", "header_to_trailer", rid, id, start.Add(a.ttfb), start.Add(a.total))
	}
	if err != nil || a.status != 200 {
		return a, true, true
	}
	if !a.ok() || (orig != nil && countMismatches(a.points, orig.first) > 0) {
		return a, true, false
	}
	return a, false, false
}

func (w *serveMixed) measure(tr *tracer, d time.Duration) (*window, error) {
	win := &window{}
	cs0, warm0 := w.rig.sched.CacheStats(), w.rig.sched.WarmPoints()
	h0 := w.rig.jr.Health()
	w.requests, w.repeats, w.refused, w.ttfb, w.stream = 0, 0, 0, nil, nil
	w.repeatLat, w.fresh = nil, nil
	c := w.client
	m := startMeter()
	for win.rounds() < minRounds || time.Since(m.wall) < d {
		block := startMeter()
		points0 := win.points
		for range serveBlock {
			body, orig := c.next()
			a, failed, refused := exchange(tr, w.rig, body, orig, fmt.Sprintf("c0-%d", c.n))
			if !failed && orig == nil {
				c.history = append(c.history, &sent{body: body, first: a.points})
			}
			win.requests++
			win.points += int64(len(a.points))
			w.requests++
			if orig != nil {
				w.repeats++
			}
			if failed {
				win.failed++
				win.lat = append(win.lat, math.Inf(1))
			} else {
				ms := float64(a.total) / 1e6
				win.lat = append(win.lat, ms)
				if orig != nil {
					w.repeatLat = append(w.repeatLat, ms)
				} else {
					w.fresh = append(w.fresh, ms)
				}
				w.ttfb = append(w.ttfb, float64(a.ttfb)/1e6)
				w.stream = append(w.stream, float64(a.total-a.ttfb)/1e6)
			}
			if refused {
				w.refused++
			}
		}
		wall, cpu := block.stop()
		win.addRound(wall, cpu, win.points-points0, serveBlock)
	}
	win.finish(m)
	for _, k := range []struct {
		name string
		ms   []float64
	}{{"repeats", w.repeatLat}, {"fresh", w.fresh}} {
		fmt.Printf("latency of %s: %d answers, p25 %.4g p50 %.4g p75 %.4g p99 %.4g ms\n", k.name, len(k.ms),
			percentile(k.ms, 25), percentile(k.ms, 50), percentile(k.ms, 75), percentile(k.ms, 99))
	}
	cs := w.rig.sched.CacheStats()
	w.cache = core.CacheStats{Hits: cs.Hits - cs0.Hits, Misses: cs.Misses - cs0.Misses}
	w.sims = cs.Simulations - cs0.Simulations
	w.warm = w.rig.sched.WarmPoints() - warm0
	h := w.rig.jr.Health()
	w.appends, w.syncs = h.Appends-h0.Appends, h.Syncs-h0.Syncs
	return win, nil
}

func (w *serveMixed) layers(tr *tracer, m metricSet, rep *report) error {
	putServe(m, w.ttfb, w.stream, w.requests, w.repeats, w.refused, w.appends, w.syncs)
	putCache(m, w.cache)
	m.put("cell.warm_share", ratio(float64(w.warm), float64(w.sims)), "ratio")
	m.put("cell.simulations", float64(w.sims), "count")
	// Per-layer probe over one fresh request of every shape.
	var specs []core.SweepSpec
	for _, s := range w.client.history[:min(len(serveShapes), len(w.client.history))] {
		spec, err := specOf(s.body)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	var ls layerSample
	mis, err := ls.probeSpecs(tr, specs)
	if err != nil {
		return err
	}
	rep.count("serve-mixed probe: scheduler vs warm and cold direct calls", int64(ls.checked), int64(mis))
	ls.metrics(m)
	jobs, err := journaledJobs(w.rig.dir, specs, 256)
	if err != nil {
		return err
	}
	if err := journalReplay(tr, m, jobs); err != nil {
		return err
	}
	return figuresProbe(tr, m)
}

// verify runs the must-fail self-check; every repeat was already
// compared with its first answer.
func (w *serveMixed) verify(rep *report) error {
	for _, s := range w.client.history {
		if len(s.first) > 0 {
			bad := corruptPoints([][]pointOut{s.first})[0]
			rep.mustFail("serve-mixed", countMismatches(s.first, bad) > 0)
			return nil
		}
	}
	rep.mustFail("serve-mixed (no answer to corrupt)", false)
	return nil
}

func (w *serveMixed) close() { w.rig.close() }

// specOf decodes a request body into the sweep it asks for.
func specOf(body []byte) (core.SweepSpec, error) {
	var r serve.SweepRequest
	if err := json.Unmarshal(body, &r); err != nil {
		return core.SweepSpec{}, err
	}
	return core.SweepSpec{Scenario: r.Scenario, SPEs: r.SPEs, Op: r.Op, List: r.List, Chunks: r.Chunks,
		Seeds: r.Seeds, Volume: r.Volume}, nil
}

// putServe reports the serve layer's figures with their bases, and the
// journal's appends and fsyncs per request.
func putServe(m metricSet, ttfb, stream []float64, requests, repeats, refused, appends, syncs int64) {
	m.put("serve.ttfb_ms", median(ttfb), "ms")
	m.put("serve.stream_ms", median(stream), "ms")
	m.put("serve.refused", float64(refused), "count")
	m.put("serve.requests", float64(requests), "count")
	m.put("serve.repeat_share", ratio(float64(repeats), float64(requests)), "ratio")
	m.put("journal.appends_per_request", ratio(float64(appends), float64(requests)), "count")
	m.put("journal.syncs_per_request", ratio(float64(syncs), float64(requests)), "count")
}

// putCache reports the memo cache's hit share and its base.
func putCache(m metricSet, cs core.CacheStats) {
	m.put("core.cache_hit_share", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "ratio")
	m.put("core.cache_lookups", float64(cs.Hits+cs.Misses), "count")
}

// serveProbe measures the serve layer for a workload that bypasses it:
// one single-point request per spec through a fresh cellserve rig, each
// sent fresh and then repeated.
func serveProbe(tr *tracer, m metricSet, specs []core.SweepSpec, rep *report) error {
	rig, err := startRig(2)
	if err != nil {
		return err
	}
	defer rig.close()
	h0 := rig.jr.Health()
	var ttfb, stream []float64
	var requests, repeats, refused, failed int64
	for i, spec := range specs {
		body, _ := json.Marshal(serve.SweepRequest{Scenario: spec.Scenario, SPEs: spec.SPEs, Op: spec.Op,
			List: spec.List, Chunks: spec.Chunks[:1], Seeds: spec.Seeds[:1], Volume: spec.Volume})
		var first *sent
		for k := range 2 {
			a, bad, ref := exchange(tr, rig, body, first, fmt.Sprintf("probe-%d-%d", i, k))
			requests++
			if first != nil {
				repeats++
			}
			if bad {
				failed++
			} else {
				ttfb = append(ttfb, float64(a.ttfb)/1e6)
				stream = append(stream, float64(a.total-a.ttfb)/1e6)
			}
			if ref {
				refused++
			}
			first = &sent{body: body, first: a.points}
		}
	}
	rep.count("serve probe answers", requests, failed)
	h := rig.jr.Health()
	putServe(m, ttfb, stream, requests, repeats, refused, h.Appends-h0.Appends, h.Syncs-h0.Syncs)
	return nil
}

// replayJob is one journaled job: its spec and its point records.
type replayJob struct {
	spec   json.RawMessage
	points []journal.PointRecord
}

// journaledJobs reads up to limit point records back from a live
// journal's file, one job each as serve-mixed submits them. Compaction
// drops the job records of finished jobs, so each point is paired with
// the spec of one of the run's requests.
func journaledJobs(dir string, specs []core.SweepSpec, limit int) ([]replayJob, error) {
	f, err := os.Open(filepath.Join(dir, journal.FileName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var jobs []replayJob
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() && len(jobs) < limit {
		var rec struct {
			T   string               `json:"t"`
			Res *journal.PointRecord `json:"res"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		if rec.T != "point" || rec.Res == nil {
			continue
		}
		raw, err := core.MarshalSpec(specs[len(jobs)%len(specs)])
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, replayJob{spec: raw, points: []journal.PointRecord{*rec.Res}})
	}
	return jobs, sc.Err()
}

// sweepJobs turns a workload's specs and scheduler answers into journal
// jobs, records shaped as the scheduler journals them.
func sweepJobs(specs []core.SweepSpec, answers [][]core.SweepResult) ([]replayJob, error) {
	var jobs []replayJob
	for i, spec := range specs {
		raw, err := core.MarshalSpec(spec)
		if err != nil {
			return nil, err
		}
		j := replayJob{spec: raw}
		for _, r := range answers[i] {
			j.points = append(j.points, journal.PointRecord{Chunk: r.Chunk, Seed: r.Seed, Cycles: int64(r.Cycles),
				GBps: r.GBps, Transfers: r.Transfers, WaitCycles: int64(r.WaitCycles), Commands: r.Commands,
				Attempts: r.Attempts, Perf: r.Perf})
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// journalReplay appends jobs to a fresh journal on the real disk, one
// span per AppendPoint, with an explicit fsync every 8 point records
// (cellserve's default batch).
func journalReplay(tr *tracer, m metricSet, jobs []replayJob) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jr, _, err := journal.Open(dir, journal.Options{SyncEvery: math.MaxInt32})
	if err != nil {
		return err
	}
	defer jr.Close()
	var appendNs, syncNs []float64
	n := 0
	for ji, job := range jobs {
		req := fmt.Sprintf("replay-%d", ji)
		var jid string
		tr.timed("journal", "Journal.AppendJob", 0, req, func() { jid, err = jr.AppendJob(job.spec) })
		if err != nil {
			return err
		}
		for pi, p := range job.points {
			key := fmt.Sprintf("%032x%032x", ji, pi)
			appendNs = append(appendNs, float64(tr.timed("journal", "Journal.AppendPoint", 0, req, func() {
				err = jr.AppendPoint(jid, key, p)
			})))
			if err != nil {
				return err
			}
			if n++; n%8 == 0 {
				syncNs = append(syncNs, float64(tr.timed("journal", "Journal.Sync", 0, req, func() { err = jr.Sync() })))
				if err != nil {
					return err
				}
			}
		}
		tr.timed("journal", "Journal.AppendDone", 0, req, func() { err = jr.AppendDone(jid) })
		if err != nil {
			return err
		}
	}
	m.put("journal.append_us", mean(appendNs)/1e3, "us")
	m.put("journal.sync_ms", mean(syncNs)/1e6, "ms")
	m.put("journal.replayed_points", float64(len(appendNs)), "count")
	return nil
}
