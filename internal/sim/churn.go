package sim

// This file provides a deterministic scheduler stress workload, shared by
// BenchmarkEngine, the allocation guard in the repository root, and the CI
// benchmark smoke step. Keeping it in the library (not a _test file) lets
// all three drive the exact same traffic mix.

// ChurnRounds is the standard round count callers hand to EventChurn: one
// "op" of engine benchmarking. Chosen so an op crosses several level-0
// wheel windows and lands work in at least two higher wheel levels.
const ChurnRounds = 64

// EventChurn drives rounds of a fixed scheduler traffic mix on e and
// returns how many events fired. Each round, anchored at the current time,
// exercises every hot path of the engine:
//
//   - same-cycle completions (the staged fast path that bypasses the wheel)
//   - short-horizon events spread over the next 60 cycles (level-0 buckets)
//   - one event ~1k cycles out and one ~50k cycles out (level-1/level-2
//     buckets, which later rounds force back down through cascades)
//   - a spawned process sleeping in 25-cycle strides (pre-bound process
//     wakeups)
//
// The clock advances 100 cycles per round; trailing far events drain at
// the end. The workload is fully deterministic, so fired-event counts are
// comparable across runs and machines.
func EventChurn(e *Engine, rounds int) int64 {
	before := e.Fired()
	sink := CalleeFunc(func(Time) {})
	Spawn(e, "churn-worker", func(p *Process) {
		for i := 0; i < rounds*4; i++ {
			p.Wait(25)
		}
	})
	for r := 0; r < rounds; r++ {
		base := e.Now()
		for i := 0; i < 8; i++ {
			e.AtCallee(base, sink, 0)
		}
		for i := 0; i < 16; i++ {
			e.AtCallee(base+Time(1+(i*7)%60), sink, 0)
		}
		e.AtCallee(base+900, sink, 0)
		e.AtCallee(base+50000, sink, 0)
		e.RunUntil(base + 100)
	}
	e.Run()
	return e.Fired() - before
}
