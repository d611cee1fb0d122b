// Package core implements the paper's contribution: the microbenchmark
// suite that measures sustainable bandwidth between every pair of Cell BE
// components — PPE to caches and memory (Figs. 3, 4, 6), SPE to memory
// (Fig. 8), SPU to local store (§4.2.2), SPE to SPE with delayed
// synchronization (Fig. 10), couples of SPEs (Figs. 12, 13), cycles of
// SPEs (Figs. 15, 16) — plus the streaming-pipeline experiment behind the
// paper's "two streams of 4 SPEs beat one stream of 8" guidance.
//
// Every figure is a grid of configurations x sampled logical-to-physical
// SPE layouts (the paper's 10 repeated runs). An experiment call submits
// each curve as a SweepSpec job on one Scheduler (Params.Curves), the
// path cellbench -sweep, cellsim and cellserve take: SPE figure points
// are cell.Scenario grid points, and the PPE, local-store and
// application-kernel figures carry hand-installed kernels in the spec
// (Params.kernelFigure). Every point boots from the scheduler's
// cell.Arena, finishes under the watchdog (System.RunChecked) and carries
// a perf-counter rollup; figures report min/max/median/average curves.
package core

import (
	"fmt"

	"cellbe/internal/cell"
	"cellbe/internal/stats"
)

// ChunkSizes is the DMA element-size sweep of the paper: 128 bytes to the
// architectural maximum of 16 KB.
var ChunkSizes = []int{128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// ElemSizes is the load/store access-width sweep: 1 byte to a full
// 128-bit register.
var ElemSizes = []int{1, 2, 4, 8, 16}

// SPECounts is the SPE scaling sweep.
var SPECounts = []int{1, 2, 4, 8}

// Params controls an experiment run.
type Params struct {
	// Runs is how many times each configuration is repeated, each with a
	// different logical-to-physical SPE layout (the paper uses 10).
	Runs int
	// BytesPerSPE is the weak-scaling transfer volume per SPE. The paper
	// moves 32 MB per SPE; the default here is smaller for quick runs —
	// steady state is reached long before that.
	BytesPerSPE int64
	// PPEBytes is the traversal volume for PPE main-memory experiments.
	PPEBytes int64
	// Base is the system configuration; zero value means
	// cell.DefaultConfig.
	Base *cell.Config
	// FirstSeed offsets the layout seeds (seed 0 is the identity layout;
	// runs use FirstSeed, FirstSeed+1, ...).
	FirstSeed int64

	// Chunks, Elems, SPESweep and Syncs restrict the sweep axes to the
	// listed values; nil keeps the full paper grid. The conformance suite
	// uses these to evaluate single figure points without paying for the
	// whole sweep.
	Chunks   []int // DMA element sizes (default ChunkSizes)
	Elems    []int // load/store access widths (default ElemSizes)
	SPESweep []int // SPE counts (default per experiment)
	Syncs    []int // Figure 10 sync intervals (default SyncIntervals)
}

// DefaultParams returns quick-run parameters: 10 layout samples, 2 MB per
// SPE.
func DefaultParams() Params {
	return Params{
		Runs:        10,
		BytesPerSPE: 2 << 20,
		PPEBytes:    2 << 20,
		FirstSeed:   1,
	}
}

// PaperParams returns the full-volume parameters matching the paper's
// setup (slower; use for final numbers).
func PaperParams() Params {
	p := DefaultParams()
	p.BytesPerSPE = 32 << 20
	p.PPEBytes = 32 << 20
	return p
}

func (p Params) config() cell.Config {
	if p.Base != nil {
		return *p.Base
	}
	return cell.DefaultConfig()
}

func (p Params) validate() error {
	if p.Runs <= 0 {
		return fmt.Errorf("core: Runs must be positive")
	}
	if p.BytesPerSPE < 16384 || p.BytesPerSPE%16384 != 0 {
		return fmt.Errorf("core: BytesPerSPE must be a positive multiple of 16 KB")
	}
	if p.PPEBytes < 4096 || p.PPEBytes%128 != 0 {
		return fmt.Errorf("core: PPEBytes must be a multiple of the line size")
	}
	for _, c := range p.Chunks {
		if c < 16 || c%16 != 0 || c > 16384 {
			return fmt.Errorf("core: chunk restriction %d must be a multiple of 16 in [16, 16384]", c)
		}
	}
	for _, e := range p.Elems {
		if e != 1 && e != 2 && e != 4 && e != 8 && e != 16 {
			return fmt.Errorf("core: element-size restriction %d must be one of 1, 2, 4, 8, 16", e)
		}
	}
	for _, n := range p.SPESweep {
		if n < 1 || n > 8 {
			return fmt.Errorf("core: SPE-count restriction %d out of range 1..8", n)
		}
	}
	for _, s := range p.Syncs {
		if s < 0 {
			return fmt.Errorf("core: sync-interval restriction %d must be non-negative", s)
		}
	}
	return nil
}

// chunkSizes returns the DMA element-size axis: the Chunks restriction,
// or the full paper sweep.
func (p Params) chunkSizes() []int {
	if len(p.Chunks) > 0 {
		return p.Chunks
	}
	return ChunkSizes
}

// elemSizes returns the access-width axis: the Elems restriction, or the
// full paper sweep.
func (p Params) elemSizes() []int {
	if len(p.Elems) > 0 {
		return p.Elems
	}
	return ElemSizes
}

// speCounts returns the SPE-count axis: the SPESweep restriction, or the
// experiment's default.
func (p Params) speCounts(def []int) []int {
	if len(p.SPESweep) > 0 {
		return p.SPESweep
	}
	return def
}

// syncIntervals returns the Figure 10 synchronization axis: the Syncs
// restriction, or the full paper sweep.
func (p Params) syncIntervals() []int {
	if len(p.Syncs) > 0 {
		return p.Syncs
	}
	return SyncIntervals
}

// Sweep runs specs as jobs on one sweep scheduler, filling in what each
// leaves unset from p: Seeds from FirstSeed..FirstSeed+Runs-1, Volume
// from BytesPerSPE and Base from p.Base. Results come back per spec in
// (chunk, seed) order; a failed point (deadlock, conservation error,
// panic) fails the whole call with an error that names the first failed
// point in spec order and wraps its cause.
func (p Params) Sweep(specs ...SweepSpec) ([][]SweepResult, error) {
	return p.sweep(nil, specs)
}

// Curves runs specs through one Sweep and folds each spec's results
// into one curve, labelled labels[i]: a point per entry of its Chunks, in
// that order, holding that chunk's values in seed order. A failed
// point's error names its curve.
func (p Params) Curves(labels []string, specs ...SweepSpec) ([]Curve, error) {
	results, err := p.sweep(labels, specs)
	if err != nil {
		return nil, err
	}
	curves := make([]Curve, len(specs))
	for i, rs := range results {
		curves[i] = Curve{Label: labels[i], Points: make([]Point, len(specs[i].Chunks))}
		for j, x := range specs[i].Chunks {
			pt := &curves[i].Points[j]
			pt.X = x
			for _, r := range rs {
				if r.Chunk == x {
					pt.Samples = append(pt.Samples, r.GBps)
				}
			}
			pt.Summary = stats.Summarize(pt.Samples)
		}
	}
	return curves, nil
}

// sweep is Sweep naming a failed point by its curve label when labels
// is set, by its scenario otherwise.
func (p Params) sweep(labels []string, specs []SweepSpec) ([][]SweepResult, error) {
	specs = append([]SweepSpec(nil), specs...) // fill in a copy, not the caller's slice
	for i := range specs {
		spec := &specs[i]
		if spec.Seeds == nil {
			spec.Seeds = make([]int64, p.Runs)
			for r := range spec.Seeds {
				spec.Seeds[r] = p.FirstSeed + int64(r)
			}
		}
		if spec.Volume == 0 {
			spec.Volume = p.BytesPerSPE
		}
		if spec.Base == nil {
			spec.Base = p.Base
		}
	}
	results, err := runJobs(specs)
	if err != nil {
		return nil, err
	}
	for i, rs := range results {
		for _, r := range rs {
			if r.Err != nil {
				what := specs[i].Scenario
				if labels != nil {
					what = fmt.Sprintf("%q", labels[i])
				}
				return nil, fmt.Errorf("core: %s point chunk=%d seed=%d: %w", what, r.Chunk, r.Seed, r.Err)
			}
		}
	}
	return results, nil
}

// pointsAt folds one-point curves into one curve whose i-th point sits
// at xs[i], for figures whose x axis is not the element size (a partner
// SPE, a fault rate).
func pointsAt(label string, xs []int, curves []Curve) Curve {
	c := Curve{Label: label}
	for i, cv := range curves {
		pt := cv.Points[0]
		pt.X = xs[i]
		c.Points = append(c.Points, pt)
	}
	return c
}

// kernelFigure runs a coroutine-kernel figure into res.Curves: one curve
// per label over xs, each (curve, x) measured on runs layout runs (seeds
// FirstSeed, FirstSeed+1, ...). install(curve, x, sys) spawns one
// measurement's kernels on a booted, not yet run system and returns the
// read-out to take once it has run. Each curve is a coroutine-kernel
// SweepSpec on Curves, like any scenario figure's.
func (p Params) kernelFigure(res *Result, runs int, labels []string, xs []int, install func(curve, x int, sys *cell.System) func() float64) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p.Runs = runs
	specs := make([]SweepSpec, len(labels))
	for c := range specs {
		specs[c] = SweepSpec{Chunks: xs, kernel: func(x int, sys *cell.System) func() float64 {
			return install(c, x, sys)
		}}
	}
	return res.withCurves(p.Curves(labels, specs...))
}

// labelsOf returns the curve labels of a figure's String-named series.
func labelsOf[T fmt.Stringer](vs []T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// withCurves completes a figure with the curves of a Curves call, or
// fails it with the call's error.
func (r *Result) withCurves(curves []Curve, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	r.Curves = curves
	return r, nil
}

// Point is one x position of a curve with its cross-run summary. Samples
// keeps the raw per-run values behind the summary so claim-oriented
// consumers (the conformance suite) can compute their own statistics —
// percentiles, robust spreads — without rerunning the experiment.
type Point struct {
	X       int
	Summary stats.Summary
	Samples []float64
}

// Curve is one labeled series of a figure.
type Curve struct {
	Label  string
	Points []Point
}

// Result is a reproduced figure: a set of curves over a common x axis.
type Result struct {
	Name   string // experiment id, e.g. "spe-mem"
	Title  string // paper reference, e.g. "Figure 8: SPE to memory"
	XLabel string
	YLabel string
	Curves []Curve
}

// Curve returns the curve with the given label, or nil.
func (r *Result) Curve(label string) *Curve {
	for i := range r.Curves {
		if r.Curves[i].Label == label {
			return &r.Curves[i]
		}
	}
	return nil
}

// At returns the summary at x on the labeled curve; ok is false when the
// curve or point does not exist.
func (r *Result) At(label string, x int) (stats.Summary, bool) {
	c := r.Curve(label)
	if c == nil {
		return stats.Summary{}, false
	}
	for _, pt := range c.Points {
		if pt.X == x {
			return pt.Summary, true
		}
	}
	return stats.Summary{}, false
}
