// Package core implements the paper's contribution: the microbenchmark
// suite that measures sustainable bandwidth between every pair of Cell BE
// components — PPE to caches and memory (Figs. 3, 4, 6), SPE to memory
// (Fig. 8), SPU to local store (§4.2.2), SPE to SPE with delayed
// synchronization (Fig. 10), couples of SPEs (Figs. 12, 13), cycles of
// SPEs (Figs. 15, 16) — plus the streaming-pipeline experiment behind the
// paper's "two streams of 4 SPEs beat one stream of 8" guidance.
//
// Every SPE figure is a grid of DMA element sizes x sampled
// logical-to-physical SPE layouts (the paper's 10 repeated runs), so it
// runs as a SweepSpec on the sweep scheduler (Params.Sweep) — the path
// cellbench -sweep, cellsim and cellserve take, with its one boot path
// (every point boots onto a recycled carcass of the scheduler's
// cell.Arena) and its watchdog. The PPE figures and the application kernels drive coroutines
// on bare systems (Params.newSystem). Every experiment reports bandwidth
// curves with min/max/median/average summaries.
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

// newSystem builds a bare system for run r (layout seed FirstSeed+r), for
// the coroutine-kernel experiments that drive a System directly.
func (p Params) newSystem(run int) *cell.System {
	return cell.New(pointConfig(p.Base, p.FirstSeed+int64(run)))
}

// Sweep runs spec on the sweep scheduler, filling in what it leaves
// unset from p: Seeds from FirstSeed..FirstSeed+Runs-1, Volume from
// BytesPerSPE and Base from p.Base. Results come back in (chunk, seed)
// order; a failed point (deadlock, conservation error, panic) fails the
// whole sweep with an error that names it and wraps its cause.
func (p Params) Sweep(spec SweepSpec) ([]SweepResult, error) {
	if spec.Seeds == nil {
		spec.Seeds = make([]int64, p.Runs)
		for i := range spec.Seeds {
			spec.Seeds[i] = p.FirstSeed + int64(i)
		}
	}
	if spec.Volume == 0 {
		spec.Volume = p.BytesPerSPE
	}
	if spec.Base == nil {
		spec.Base = p.Base
	}
	results, err := RunSweep(spec)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("core: %s point chunk=%d seed=%d: %w", spec.Scenario, r.Chunk, r.Seed, r.Err)
		}
	}
	return results, nil
}

// SweepCurve runs spec through Sweep and folds its per-seed bandwidths
// into one curve over the chunk axis.
func (p Params) SweepCurve(label string, spec SweepSpec) (Curve, error) {
	results, err := p.Sweep(spec)
	if err != nil {
		return Curve{}, err
	}
	series := stats.NewSeries(label, spec.Chunks)
	for _, r := range results {
		series.Add(r.Chunk, r.GBps)
	}
	return CurveFromSeries(series), nil
}

// sweepAt runs a one-chunk spec through Sweep and returns its samples as
// the point at x, for figures whose x axis is not the element size.
func (p Params) sweepAt(x int, spec SweepSpec) (Point, error) {
	c, err := p.SweepCurve("", spec)
	if err != nil {
		return Point{}, err
	}
	pt := c.Points[0]
	pt.X = x
	return pt, nil
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

// CurveFromSeries converts collected samples to a Curve.
func CurveFromSeries(s *stats.Series) Curve {
	c := Curve{Label: s.Label}
	for i, x := range s.Xs {
		c.Points = append(c.Points, Point{X: x, Summary: stats.Summarize(s.Values[i]), Samples: s.Values[i]})
	}
	return c
}
