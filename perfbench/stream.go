package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"cellbe/internal/core"
)

// streamSweep submits element-DMA pair, couples and cycle grids as large
// jobs to a one-worker scheduler without a cache, so every point after a
// job's template is stamped from the warm snapshot arena.
type streamSweep struct {
	seed  int64
	g     *goldens
	specs []core.SweepSpec
	sched *core.Scheduler
	ref   [][]pointOut // the warm-up pass's answer, per spec
}

// Grid shape: fixed chunk sizes and per-kind layout counts keep the work
// of a round comparable across seeds; the seed draws the layouts. The
// counts put the median delivery interval in the middle of one chunk
// size's couples points, away from the edge between two kinds of point.
var (
	streamChunks = []int{1024, 4096, 16384}
	streamKinds  = []struct {
		kind    string
		layouts int
	}{{"pair", 12}, {"couples", 16}, {"cycle", 12}}
)

const streamVolume = 64 << 10 // bytes per active SPE

func streamSpecs(seed int64) []core.SweepSpec {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x57ea))
	var specs []core.SweepSpec
	for _, k := range streamKinds {
		seeds := make([]int64, k.layouts)
		for i := range seeds {
			seeds[i] = 1 + rng.Int64N(1<<31)
		}
		specs = append(specs, core.SweepSpec{Scenario: k.kind, SPEs: 8, Chunks: streamChunks,
			Seeds: seeds, Volume: streamVolume, Workers: 1})
	}
	return specs
}

func (w *streamSweep) setup() error {
	w.specs = streamSpecs(w.seed)
	// A drained job frees its admission slot just after its results
	// channel closes, so the next submission may arrive first: admit two.
	w.sched = core.NewScheduler(core.SchedOptions{Workers: 1, MaxJobs: 2})
	// Warm-up pass: one full round, whose answer every later round must
	// reproduce.
	w.ref = nil
	for _, spec := range w.specs {
		pts, _, err := w.runJob(nil, spec)
		if err != nil {
			return err
		}
		w.ref = append(w.ref, pts)
	}
	return nil
}

// runJob submits spec and drains it, returning its points and the
// delivery interval of each (from submission or the previous point).
func (w *streamSweep) runJob(tr *tracer, spec core.SweepSpec) ([]pointOut, []float64, error) {
	jid := tr.begin("core", "Scheduler.job", 0, spec.Scenario)
	defer tr.end(jid)
	last := time.Now()
	job, err := w.sched.Submit(context.Background(), spec)
	if err != nil {
		return nil, nil, err
	}
	var pts []pointOut
	var gaps []float64
	for pr := range job.Results() {
		now := time.Now()
		tr.add("cell", "scheduled_point", jid, fmt.Sprintf("%s/%d/%d", spec.Scenario, pr.Chunk, pr.Seed), last, now)
		gaps = append(gaps, float64(now.Sub(last))/1e6)
		last = now
		if pr.Err != nil {
			return nil, nil, fmt.Errorf("stream-sweep: %s chunk %d seed %d: %w", spec.Scenario, pr.Chunk, pr.Seed, pr.Err)
		}
		pts = append(pts, fromSweep(pr.SweepResult))
	}
	return pts, gaps, nil
}

func (w *streamSweep) measure(tr *tracer, d time.Duration) (*window, error) {
	win := &window{}
	m := startMeter()
	for win.rounds() < minRounds || time.Since(m.wall) < d {
		rm := startMeter()
		pts0, reqs0 := win.points, win.requests
		for i, spec := range w.specs {
			pts, gaps, err := w.runJob(tr, spec)
			if err != nil {
				return nil, err
			}
			win.requests++
			if countMismatches(pts, w.ref[i]) > 0 {
				win.failed++
			}
			win.points += int64(len(pts))
			win.lat = append(win.lat, gaps...)
		}
		wall, cpu := rm.stop()
		win.addRound(wall, cpu, win.points-pts0, win.requests-reqs0)
	}
	win.finish(m)
	return win, nil
}

// verify checks the reference answer: against the golden for the default
// seed, and for any seed against cold direct calls (cell.New +
// Scenario.Install per point, bypassing the scheduler and the arena).
func (w *streamSweep) verify(rep *report) error {
	want, ok := w.g.stream[w.seed]
	if ok {
		rep.check(fmt.Sprintf("stream-sweep points vs golden (seed %d)", w.seed), flatten(w.ref), flatten(want))
	} else {
		want = w.ref
	}
	rep.mustFail("stream-sweep", countMismatches(flatten(w.ref), flatten(corruptPoints(want))) > 0)
	var ls layerSample
	var cold [][]pointOut
	for _, spec := range w.specs {
		pts, err := ls.directPass(nil, spec, false)
		if err != nil {
			return err
		}
		cold = append(cold, pts)
	}
	rep.check("stream-sweep points vs cold direct calls", flatten(w.ref), flatten(cold))
	return nil
}

func (w *streamSweep) layers(tr *tracer, m metricSet, rep *report) error {
	var ls layerSample
	mis, err := ls.probeSpecs(tr, w.specs)
	if err != nil {
		return err
	}
	rep.count("stream-sweep probe: scheduler vs warm and cold direct calls", int64(ls.checked), int64(mis))
	var probed [][]pointOut
	for _, rs := range ls.results {
		var pts []pointOut
		for _, r := range rs {
			pts = append(pts, fromSweep(r))
		}
		probed = append(probed, pts)
	}
	rep.check("stream-sweep probe vs measured answers", flatten(probed), flatten(w.ref))
	ls.metrics(m)
	cs := w.sched.CacheStats()
	m.put("cell.warm_share", ratio(float64(w.sched.WarmPoints()), float64(cs.Simulations)), "ratio")
	m.put("cell.simulations", float64(cs.Simulations), "count")
	putCache(m, cs)
	jobs, err := sweepJobs(w.specs, ls.results)
	if err != nil {
		return err
	}
	if err := journalReplay(tr, m, jobs); err != nil {
		return err
	}
	if err := serveProbe(tr, m, w.specs, rep); err != nil {
		return err
	}
	return figuresProbe(tr, m)
}

func (w *streamSweep) close() { w.sched.Close() }

func flatten(grids [][]pointOut) []pointOut {
	var out []pointOut
	for _, g := range grids {
		out = append(out, g...)
	}
	return out
}
