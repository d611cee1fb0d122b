package core

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"cellbe/internal/cell"
	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
)

// SweepSpec describes a grid sweep of one DMA scenario over layout seeds
// and chunk sizes. Each grid point is an independent simulation (its own
// cell.System and event engine — the engine is single-threaded by design,
// so parallelism is across runs, never within one), which makes the sweep
// embarrassingly parallel and the results independent of worker count.
type SweepSpec struct {
	// Scenario is the workload kind: the canonical pair, couples, cycle
	// or mem, or a workload-library kind (gups, qcd, md, stream,
	// pattern).
	Scenario string
	// SPEs is the SPE count handed to the scenario.
	SPEs int
	// Op is the scenario operation: get, put or copy for mem; get, put
	// or both for gups; copy, scale, add or triad for stream. Ignored
	// for the SPE-to-SPE scenarios. Empty picks the kind's default
	// (cell.Scenario.WithDefaultOp).
	Op string
	// List runs the DMA-list variant of the scenario kernels (GETL/PUTL
	// lists of Chunk-sized elements) instead of DMA-elem commands.
	List bool
	// Ring is the qcd preset's halo-exchange neighbour distance (0
	// means nearest neighbour).
	Ring int `json:",omitempty"`
	// AddrSeeds pins the per-SPE address-stream seeds of seeded-random
	// workloads (one per SPE); nil derives fixed lane seeds.
	AddrSeeds []int64 `json:",omitempty"`
	// Pattern is the explicit phase program swept by the "pattern"
	// scenario kind.
	Pattern *cell.Pattern `json:",omitempty"`
	// Chunks are the DMA element sizes to sweep.
	Chunks []int
	// Seeds are the layout seeds to sweep (seed 0 is the identity
	// layout).
	Seeds []int64
	// Volume is the bytes per active SPE at every grid point.
	Volume int64
	// Workers caps the number of concurrent simulations; <= 0 uses
	// GOMAXPROCS.
	Workers int
	// Base overrides the machine configuration; nil means
	// cell.DefaultConfig. The scheduler snapshots it (cell.Config.Clone)
	// when the sweep is submitted, so the caller may keep mutating the
	// pointed-to Config afterwards without racing the workers. Fault
	// injection sweeps set Base.Faults; the per-point fault seed derives
	// from the layout seed via DeriveFaultSeed unless Base.FaultSeed is
	// set.
	Base *cell.Config
	// MaxCycles is the watchdog budget per grid point (0 = unlimited).
	MaxCycles sim.Time
	// Instrument, when set, runs against each grid point's System once
	// the scenario is installed and before its first event fires — the
	// hook cellsim and the layout-timeline experiment use to attach a
	// tracer or metrics sampler to one chosen point. It executes on a worker goroutine: an Instrument that
	// touches shared state must target a single (chunk, seed) point, or
	// synchronize.
	//
	// The return value is the retention contract: return true to keep the
	// System alive past the point's lifetime (tracers and samplers read it
	// after the sweep joins) — it then never goes back to the arena.
	// Return false and the scheduler retires the System exactly as it
	// does for uninstrumented points, so instrumenting one grid point does
	// not cost the other points of the grid their recycled carcasses.
	// Jobs with an Instrument hook bypass the result cache: a memoized
	// point would skip the simulation the hook exists to observe.
	// Instrumented jobs are also never journaled — a hook is process
	// state that cannot be re-attached from a file on resume.
	Instrument func(chunk int, seed int64, sys *cell.System) bool `json:"-"`

	// figure carries the pair-kernel knobs of the paper's figure drivers
	// (cell.PairFigure). Unexported, so JSON, the CLIs, the journal and
	// MarshalSpec cannot reach it; pointKey still tells its values apart.
	figure cell.PairFigure

	// kernel, when set, replaces the scenario: each point boots a bare
	// system, kernel(chunk, sys) spawns the figure's kernels on it (the
	// chunk axis is the figure's x axis) and returns the read-out that
	// becomes SweepResult.GBps. Unexported like figure.
	kernel func(x int, sys *cell.System) func() float64
}

// MarshalSpec canonicalizes a spec for the write-ahead journal. The
// Instrument hook is excluded (and journaling is skipped for
// instrumented jobs); every other field — the snapshotted Base config
// included — round-trips, so a restart resubmits exactly the sweep the
// crash interrupted.
func MarshalSpec(spec SweepSpec) ([]byte, error) {
	return json.Marshal(spec)
}

// UnmarshalSpec is the inverse of MarshalSpec, for resume-on-restart.
func UnmarshalSpec(b []byte) (SweepSpec, error) {
	var spec SweepSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return SweepSpec{}, fmt.Errorf("core: decoding journaled spec: %w", err)
	}
	return spec, nil
}

// SweepResult is the outcome of one (chunk, seed) grid point.
type SweepResult struct {
	Chunk  int
	Seed   int64
	Cycles sim.Time
	// GBps is the point's bandwidth; for a coroutine-kernel point it is
	// the kernel's read-out, in the figure's unit (GB/s, GFLOPS or
	// cycles).
	GBps       float64
	Transfers  int64
	WaitCycles sim.Time
	Commands   int64
	// FaultSeed is the injector seed this point actually ran with: the
	// explicit Base.FaultSeed, or the seed DeriveFaultSeed derived from
	// the layout seed (re-rolled deterministically on retries). Zero when
	// fault injection is off.
	FaultSeed int64
	// Attempts is how many times the point simulated before this result
	// (1 = first try; >1 means the retry policy re-ran a transient
	// failure). Zero only on skipped/unset results.
	Attempts int
	// Perf is the point's perf-counter rollup. Counters are cheap enough
	// (plain uint64 increments, never allocating, never touching event
	// timing) that every simulated point carries one; it rides the memo
	// cache and the journal with the rest of the result. Nil on failed
	// points and on results journaled before the counter subsystem.
	Perf *perfctr.Rollup
	// Err records why this grid point failed (deadlock diagnostic,
	// recovered panic, ...); the rest of the sweep still runs. Numeric
	// fields are zero when Err is set.
	Err error
	// Log carries this point's diagnostic lines — the full multi-line
	// deadlock/panic detail that does not fit a one-row CSV cell, and the
	// resolved SPE layout for failed points. Workers never print: all
	// reporting flows through the result so output is serialized and
	// deterministic regardless of worker count.
	Log []string
}

// identityFaultSeed is the derived fault seed of layout seed 0. Any fixed
// non-zero value works; it only has to be distinguishable from the
// FaultSeed == 0 "derive me" sentinel and implausible as a user-swept
// layout seed.
const identityFaultSeed int64 = 0x5eed_fa17_0001

// DeriveFaultSeed maps a grid point's layout seed to the fault-injector
// seed used when the sweep's config leaves FaultSeed at 0 ("derive from
// the layout seed"). Non-zero layout seeds pass through unchanged, so the
// fault stream sweeps alongside the layouts; layout seed 0 (the identity
// layout) maps to a fixed non-zero constant instead, because FaultSeed 0
// is the "unset" sentinel — passing it through would leave the seed-0
// point's config claiming "derive me" while actually pinning stream 0,
// and -fault-seed 0 on the CLIs could never reproduce it explicitly.
func DeriveFaultSeed(layoutSeed int64) int64 {
	if layoutSeed != 0 {
		return layoutSeed
	}
	return identityFaultSeed
}

// Validate rejects impossible grids before any goroutine spawns; Submit
// runs it first.
func (s SweepSpec) Validate() error {
	if len(s.Chunks) == 0 {
		return fmt.Errorf("core: sweep needs at least one chunk size")
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("core: sweep needs at least one seed")
	}
	if s.kernel != nil {
		return nil
	}
	for _, c := range s.Chunks {
		sc := s.scenario(c)
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// private reports whether the spec carries process state (an Instrument
// hook or a kernel) that the result cache and the journal cannot hold.
func (s *SweepSpec) private() bool {
	return s.Instrument != nil || s.kernel != nil
}

// faultsEnabled reports whether the sweep's (possibly nil) base config
// turns on fault injection — the condition under which a watchdog
// deadlock is considered transient and worth retrying.
func (s *SweepSpec) faultsEnabled() bool {
	return s.Base != nil && s.Base.Faults.Enabled()
}

func (s SweepSpec) scenario(chunk int) cell.Scenario {
	sc := cell.Scenario{
		Kind: s.Scenario, SPEs: s.SPEs, Chunk: chunk, Volume: s.Volume,
		Op: s.Op, List: s.List, Ring: s.Ring, AddrSeeds: s.AddrSeeds, Pattern: s.Pattern,
	}
	return sc.WithDefaultOp().WithPairFigure(s.figure)
}

// pointConfig resolves the machine configuration one grid point runs on:
// the base (or the default), with the point's layout and — for faulty
// configs that left FaultSeed unset — the derived fault seed. It is the
// one place layout and fault seeds are derived, for sweep points and
// coroutine-kernel measurements alike. The base is cloned per point so
// concurrent workers never share the Layout slice (or any future
// reference field) through the spec.
func pointConfig(base *cell.Config, seed int64) cell.Config {
	cfg := cell.DefaultConfig()
	if base != nil {
		cfg = base.Clone()
	}
	cfg.Layout = cell.RandomLayout(seed)
	if cfg.Faults.Enabled() && cfg.FaultSeed == 0 {
		// Tie the fault stream to the grid point so seeds sweep fault
		// patterns alongside layouts, deterministically.
		cfg.FaultSeed = DeriveFaultSeed(seed)
	}
	return cfg
}

// boot readies one grid point on a carcass of arena, installed but not
// yet run, with the read-out that gives its GBps once it has. A failed
// install retires the carcass itself.
func (s *SweepSpec) boot(arena *cell.Arena, cfg cell.Config, chunk int) (sys *cell.System, readout func() float64, err error) {
	if s.kernel == nil {
		sys, total, err := arena.Boot(cfg, s.scenario(chunk))
		if err != nil {
			return nil, nil, err
		}
		return sys, func() float64 { return sys.GBps(total, sys.Eng.Now()) }, nil
	}
	sys, _ = arena.New(cfg)
	defer func() {
		if readout == nil {
			arena.Retire(sys)
		}
	}()
	return sys, s.kernel(chunk, sys), nil
}

// panicError is a recovered panic value as an error, prefixed with what
// panicked and wrapping the value when it is an error.
func panicError(r any, what string) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("%s panicked: %w", what, err)
	}
	return fmt.Errorf("%s panicked: %v", what, r)
}

// runPoint simulates one grid point; attempt is 0 for the first try and
// counts up on retries, where it deterministically re-rolls the fault
// stream (see retryFaultSeed). The point boots onto a carcass of the
// scheduler's arena with its own layout, fault seed and chunk, and the
// carcass is retired back afterwards unless the Instrument hook kept the
// System; results are bit-identical to a cold boot (pinned by the
// arena differential tests). Any failure — an install error, a watchdog
// deadlock, or a panic anywhere inside the simulation — is contained to
// this point's Err so one bad point cannot kill the sweep (or, worse, a
// worker goroutine and with it the whole process).
func runPoint(spec *SweepSpec, arena *cell.Arena, chunk int, seed int64, attempt int) (res SweepResult) {
	res = SweepResult{Chunk: chunk, Seed: seed}
	defer func() {
		if r := recover(); r != nil {
			res.Err = panicError(r, fmt.Sprintf("core: grid point chunk=%d seed=%d", chunk, seed))
			res.Log = append(res.Log, res.Err.Error())
		}
	}()
	cfg := pointConfig(spec.Base, seed)
	if cfg.Faults.Enabled() {
		cfg.FaultSeed = retryFaultSeed(cfg.FaultSeed, attempt)
		res.FaultSeed = cfg.FaultSeed
	}
	sys, readout, err := spec.boot(arena, cfg, chunk)
	if err != nil {
		res.Err = err
		res.Log = append(res.Log, err.Error())
		return res
	}
	// Teardown is a pointer-reset, not a garbage collection: the carcass
	// goes back to the arena for the next point to stamp. init fully
	// re-stamps it (counter block included), so retiring after a deadlock
	// or panic is safe. An Instrument hook opts out per point by returning
	// true: it kept the System (tracers, samplers) past the point's
	// lifetime.
	if spec.Instrument == nil || !spec.Instrument(chunk, seed, sys) {
		defer arena.Retire(sys)
	}
	if err := sys.RunChecked(spec.MaxCycles); err != nil {
		res.Err = err
		res.Log = append(res.Log,
			fmt.Sprintf("layout %v", sys.Layout()), err.Error())
		return res
	}
	st := sys.Bus.Stats()
	res.Cycles = sys.Eng.Now()
	res.GBps = readout()
	res.Transfers = st.Transfers
	res.WaitCycles = st.WaitCycles
	res.Commands = st.Commands
	ru := sys.Perf().Rollup()
	// The time-weighted queue-occupancy view lives on each MFC (it is
	// accumulated at occupancy transitions, not enqueue samples); fold it
	// in here so it rides the rollup to /metrics with the rest.
	for i := range sys.SPEs {
		ru.AddOccupancy(i, sys.SPEs[i].MFC().OccupancyHist())
	}
	res.Perf = &ru
	return res
}

// RunSweep executes every (chunk, seed) grid point of spec, fanning the
// independent simulations across worker goroutines, and returns results
// sorted by (chunk, seed). The result of each point is bit-identical
// regardless of Workers: each simulation owns its engine, and workers
// only write disjoint slice slots.
//
// RunSweep is the one-shot facade over the job scheduler (runJobs).
// Long-running callers (cellserve) construct a shared Scheduler instead
// and get memoization, admission control and cancellation on top of the
// same worker pool.
func RunSweep(spec SweepSpec) ([]SweepResult, error) {
	results, err := runJobs([]SweepSpec{spec})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// runJobs is the one-shot runner under RunSweep and Params.Sweep: one
// private Scheduler (no result cache — a one-shot run never resubmits a
// point) with every spec as a job, each job's results sorted by (chunk,
// seed). The pool has GOMAXPROCS workers (or a spec's Workers), capped
// at the number of grid points.
func runJobs(specs []SweepSpec) ([][]SweepResult, error) {
	workers, points := runtime.GOMAXPROCS(0), 0
	for _, spec := range specs {
		if spec.Workers > 0 {
			workers = spec.Workers
		}
		points += len(spec.Chunks) * len(spec.Seeds)
	}
	s := NewScheduler(SchedOptions{Workers: min(workers, points), MaxJobs: len(specs)})
	defer s.Close()
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		job, err := s.Submit(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	out := make([][]SweepResult, len(jobs))
	for i, job := range jobs {
		rs := make([]SweepResult, 0, job.Total())
		for pr := range job.Results() {
			rs = append(rs, pr.SweepResult)
		}
		sort.Slice(rs, func(a, b int) bool {
			if rs[a].Chunk != rs[b].Chunk {
				return rs[a].Chunk < rs[b].Chunk
			}
			return rs[a].Seed < rs[b].Seed
		})
		out[i] = rs
	}
	return out, nil
}
