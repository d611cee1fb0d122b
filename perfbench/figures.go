package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"cellbe/internal/core"
)

// figureSet is the registry experiments the paper-figures workload
// regenerates: the paper reproduction users actually run, at reduced
// volume. Each loads layers the stream sweep never touches.
var figureSet = []string{"ppe-l2", "spe-mem-get", "spe-pair-sync", "spe-couples-list", "workloads"}

// figureLayer is the layer each experiment's span is charged to: the one
// whose model does most of its work.
var figureLayer = map[string]string{
	"ppe-l2": "ppe", "spe-mem-get": "xdr", "spe-pair-sync": "mfc", "spe-couples-list": "mfc", "workloads": "cell",
}

// figureSeeds is how many layout-seed bases the seed chooses among; the
// goldens hold one answer per base.
const figureSeeds = 8

// figureParams are the reduced parameters of the suite for one seed.
func figureParams(seed int64) core.Params {
	p := core.DefaultParams()
	p.Runs = 2
	p.BytesPerSPE = 256 << 10
	p.PPEBytes = 64 << 10
	p.FirstSeed = 1 + seed%figureSeeds
	p.Elems = []int{16}
	p.Chunks = []int{256, 2048, 16384}
	return p
}

// curveOut is one curve of a figure with every per-run sample, the form
// compared with the golden.
type curveOut struct {
	Label   string      `json:"label"`
	X       []int       `json:"x"`
	Samples [][]float64 `json:"samples"`
}

func curvesOf(r *core.Result) []curveOut {
	var out []curveOut
	for _, c := range r.Curves {
		co := curveOut{Label: c.Label}
		for _, pt := range c.Points {
			co.X = append(co.X, pt.X)
			co.Samples = append(co.Samples, pt.Samples)
		}
		out = append(out, co)
	}
	return out
}

// samples counts the simulations behind a figure: one per per-run sample.
func samples(cs []curveOut) int64 {
	var n int64
	for _, c := range cs {
		for _, s := range c.Samples {
			n += int64(len(s))
		}
	}
	return n
}

// sameCurves compares two figures value for value (JSON encodes float64
// in its shortest exact form, so equal bytes mean equal bits).
func sameCurves(a, b []curveOut) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}

// paperFigures regenerates figureSet through the experiment registry,
// with the library's own GOMAXPROCS fan-out across layout runs.
type paperFigures struct {
	seed   int64
	g      *goldens
	params core.Params
	order  []string
	want   map[string][]curveOut
	got    map[string][]curveOut // the last round's answer
}

func (w *paperFigures) setup() error {
	w.params = figureParams(w.seed)
	w.order = slices.Clone(figureSet)
	rng := rand.New(rand.NewPCG(uint64(w.seed), 0xf16))
	rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
	w.want = w.g.figures[w.params.FirstSeed]
	if w.want == nil {
		return fmt.Errorf("paper-figures: no golden for layout base %d", w.params.FirstSeed)
	}
	w.got = make(map[string][]curveOut)
	// Warm-up pass: the two cheapest experiments of the set.
	for _, name := range []string{"spe-couples-list", "spe-pair-sync"} {
		if _, err := w.runOne(nil, name); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperFigures) runOne(tr *tracer, name string) ([]curveOut, error) {
	e, err := core.Lookup(name)
	if err != nil {
		return nil, err
	}
	var res *core.Result
	tr.timed(figureLayer[name], "figures."+name, 0, name, func() { res, err = e.Run(w.params) })
	if err != nil {
		return nil, fmt.Errorf("paper-figures: %s: %w", name, err)
	}
	return curvesOf(res), nil
}

func (w *paperFigures) measure(tr *tracer, d time.Duration) (*window, error) {
	win := &window{}
	m := startMeter()
	for win.rounds() < minRounds || time.Since(m.wall) < d {
		rm := startMeter()
		pts0, reqs0 := win.points, win.requests
		for _, name := range w.order {
			t := time.Now()
			cs, err := w.runOne(tr, name)
			if err != nil {
				return nil, err
			}
			win.lat = append(win.lat, float64(time.Since(t))/1e6)
			win.requests++
			win.points += samples(cs)
			if !sameCurves(cs, w.want[name]) {
				win.failed++
			}
			w.got[name] = cs
		}
		wall, cpu := rm.stop()
		win.addRound(wall, cpu, win.points-pts0, win.requests-reqs0)
	}
	win.finish(m)
	return win, nil
}

// verify runs the must-fail self-check; every round already compared
// each figure with the golden.
func (w *paperFigures) verify(rep *report) error {
	name := w.order[0]
	rep.mustFail("paper-figures", !sameCurves(w.got[name], corruptCurves(w.want[name])))
	return nil
}

func (w *paperFigures) layers(tr *tracer, m metricSet, rep *report) error {
	for _, name := range figureSet {
		m.put("figures."+name+"_s", median(tr.durations(figureLayer[name], "figures."+name))/1e9, "s")
	}
	var ls layerSample
	specs := workloadSpecs(w.params)
	mis, err := ls.probeSpecs(tr, specs)
	if err != nil {
		return err
	}
	rep.count("paper-figures probe: scheduler vs warm and cold direct calls", int64(ls.checked), int64(mis))
	ls.metrics(m)
	// The suite itself never reports its scheduler counters; the share is
	// the probe's: points its warm-path passes stamped from a snapshot.
	m.put("cell.warm_share", ratio(float64(ls.warm), float64(ls.matchPoints)), "ratio")
	m.put("cell.simulations", float64(ls.matchPoints), "count")
	putCache(m, core.CacheStats{})
	jobs, err := sweepJobs(specs, ls.results)
	if err != nil {
		return err
	}
	if err := journalReplay(tr, m, jobs); err != nil {
		return err
	}
	return serveProbe(tr, m, specs, rep)
}

// figuresProbe measures the figure experiments for a workload that
// bypasses them: each experiment once at minimal parameters.
func figuresProbe(tr *tracer, m metricSet) error {
	p := core.DefaultParams()
	p.Runs = 1
	p.BytesPerSPE = 16 << 10
	p.PPEBytes = 16 << 10
	p.Elems = []int{16}
	p.Chunks = []int{4096}
	w := &paperFigures{params: p}
	for _, name := range figureSet {
		start := time.Now()
		if _, err := w.runOne(tr, name); err != nil {
			return err
		}
		m.put("figures."+name+"_s", time.Since(start).Seconds(), "s")
	}
	return nil
}

func (w *paperFigures) close() {}

// workloadSpecs re-issues the grids of the workloads experiment (the
// gups/qcd/md/stream presets at the suite's parameters), plus one
// element-DMA pair grid, which is snapshot-capable and so measures the
// warm path the presets cannot take.
func workloadSpecs(p core.Params) []core.SweepSpec {
	seeds := make([]int64, p.Runs)
	for i := range seeds {
		seeds[i] = p.FirstSeed + int64(i)
	}
	specs := []core.SweepSpec{
		{Scenario: "gups", SPEs: 8, Op: "both", Chunks: []int{8, 16, 32, 64, 128}, Volume: p.BytesPerSPE / 16},
		{Scenario: "qcd", SPEs: 8, Chunks: []int{1024, 4096, 16384}, Volume: p.BytesPerSPE / 2},
		{Scenario: "md", SPEs: 8, Chunks: []int{512, 4096}, Volume: p.BytesPerSPE / 2},
		{Scenario: "stream", SPEs: 8, Op: "copy", Chunks: []int{16384}, Volume: p.BytesPerSPE / 2},
		{Scenario: "stream", SPEs: 8, Op: "scale", Chunks: []int{16384}, Volume: p.BytesPerSPE / 2},
		{Scenario: "stream", SPEs: 8, Op: "add", Chunks: []int{16384}, Volume: p.BytesPerSPE / 2},
		{Scenario: "stream", SPEs: 8, Op: "triad", Chunks: []int{4096, 16384}, Volume: p.BytesPerSPE / 2},
		{Scenario: "pair", SPEs: 2, Chunks: p.Chunks, Volume: p.BytesPerSPE},
	}
	for i := range specs {
		specs[i].Seeds = seeds
	}
	return specs
}
