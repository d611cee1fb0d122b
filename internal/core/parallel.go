package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cellbe/internal/cell"
	"cellbe/internal/stats"
)

// panicError is a recovered panic value as an error, prefixed with what
// panicked and wrapping the value when it is an error. It is the one
// containment of a simulation panic: sweep grid points and kernel
// measurements alike.
func panicError(r any, what string) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("%s panicked: %w", what, err)
	}
	return fmt.Errorf("%s panicked: %v", what, r)
}

// kernelFigure runs a coroutine-kernel figure into res.Curves: one curve
// per label over xs, each (curve, x) measured on runs layout runs (seeds
// FirstSeed, FirstSeed+1, ...). install(curve, x, sys) spawns one
// measurement's kernels on a booted, not yet run system and returns the
// read-out to take once it has run. Every measurement boots onto a
// carcass of one arena for the call and runs under the watchdog
// (System.RunChecked, so Base.MaxCycles applies). Measurements fan out
// on GOMAXPROCS goroutines, last first (the figures list their heaviest
// configurations last), each writing only its own slot, so the samples
// do not depend on which carcass or worker ran them. A deadlock, budget
// overrun, conservation error or panic fails the figure with the first
// failed measurement's error, which names the experiment, curve, x and
// run.
func (p Params) kernelFigure(res *Result, runs int, labels []string, xs []int, install func(curve, x int, sys *cell.System) func() float64) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	per := len(xs) * runs
	n := len(labels) * per
	vals := make([]float64, n)
	errs := make([]error, n)
	var arena cell.Arena
	defer arena.Release()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := n - int(next.Add(1))
				if k < 0 {
					return
				}
				curve, x, run := k/per, xs[k%per/runs], k%runs
				what := fmt.Sprintf("core: %s %q x=%d run=%d", res.Name, labels[curve], x, run)
				vals[k], errs[k] = p.measure(&arena, what, run, func(sys *cell.System) func() float64 {
					return install(curve, x, sys)
				})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for c, label := range labels {
		series := stats.NewSeries(label, xs)
		for k := c * per; k < (c+1)*per; k++ {
			series.Add(xs[k%per/runs], vals[k])
		}
		res.Curves = append(res.Curves, CurveFromSeries(series))
	}
	return res, nil
}

// measure boots one measurement onto a carcass of arena with run's
// layout, installs its kernels, runs it under the watchdog and takes the
// read-out, retiring the carcass however the run ends.
func (p Params) measure(arena *cell.Arena, what string, run int, install func(*cell.System) func() float64) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r, what)
		}
	}()
	sys, _ := arena.New(pointConfig(p.Base, p.FirstSeed+int64(run)))
	defer arena.Retire(sys)
	readout := install(sys)
	if err := sys.RunChecked(0); err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	return readout(), nil
}

// labelsOf returns the curve labels of a figure's String-named series.
func labelsOf[T fmt.Stringer](vs []T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}
