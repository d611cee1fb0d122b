package core

import (
	"runtime"
	"sync"
)

// fanOut calls fn(i) for every i in [0, n), on up to GOMAXPROCS worker
// goroutines that take indices in increasing order, and returns when all
// calls have. With one worker (GOMAXPROCS 1 or n <= 1) it runs inline.
// Callers make each call independent (its own System, its own event
// engine) and write only their own result slot, so results stay
// deterministic: only wall-clock time changes.
func fanOut(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// forEachRun evaluates measure once per layout run, in parallel when the
// host has spare cores. Each run builds its own System, so runs are fully
// independent. The returned slice is indexed by run.
func forEachRun(p Params, measure func(run int) float64) []float64 {
	out := make([]float64, p.Runs)
	fanOut(p.Runs, func(r int) { out[r] = measure(r) })
	return out
}

// addRuns measures all runs (in parallel) and adds them to a series point.
func addRuns(p Params, series interface{ Add(int, float64) }, x int, measure func(run int) float64) {
	for _, v := range forEachRun(p, measure) {
		series.Add(x, v)
	}
}
