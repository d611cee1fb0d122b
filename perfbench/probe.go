package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/core"
	"cellbe/internal/eib"
	"cellbe/internal/perfctr"
)

// pointOut is the simulated outcome of one grid point: the fields every
// correctness check compares, GB/s by its exact bits.
type pointOut struct {
	Chunk      int     `json:"chunk"`
	Seed       int64   `json:"seed"`
	Cycles     int64   `json:"cycles"`
	Transfers  int64   `json:"transfers"`
	WaitCycles int64   `json:"wait_cycles"`
	GBps       float64 `json:"gbps"`
}

func fromSweep(r core.SweepResult) pointOut {
	return pointOut{Chunk: r.Chunk, Seed: r.Seed, Cycles: int64(r.Cycles), Transfers: r.Transfers,
		WaitCycles: int64(r.WaitCycles), GBps: r.GBps}
}

func (p pointOut) equal(q pointOut) bool {
	return p.Chunk == q.Chunk && p.Seed == q.Seed && p.Cycles == q.Cycles && p.Transfers == q.Transfers &&
		p.WaitCycles == q.WaitCycles && math.Float64bits(p.GBps) == math.Float64bits(q.GBps)
}

// countMismatches compares got with want point by point.
func countMismatches(got, want []pointOut) int {
	bad := 0
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || !got[i].equal(want[i]) {
			bad++
		}
	}
	return bad
}

// scenarioOf is the cell scenario a sweep spec runs at one chunk size.
func scenarioOf(spec core.SweepSpec, chunk int) cell.Scenario {
	sc := cell.Scenario{Kind: spec.Scenario, SPEs: spec.SPEs, Chunk: chunk, Volume: spec.Volume,
		Op: spec.Op, List: spec.List, Ring: spec.Ring, AddrSeeds: spec.AddrSeeds, Pattern: spec.Pattern}
	return sc.WithDefaultOp()
}

// pointConfig is the machine a grid point runs on (default machine, the
// seed's layout), as the scheduler builds it for specs without Base.
func pointConfig(seed int64) cell.Config {
	cfg := cell.DefaultConfig()
	cfg.Layout = cell.RandomLayout(seed)
	return cfg
}

// layerSample accumulates the per-layer measurements of direct calls.
type layerSample struct {
	points, warm                       int
	bootNs, cloneNs, retireNs          []float64
	runNs, rollupNs                    []float64
	events                             int64
	transfers, waitCycles, mfcCommands int64
	grants, attempts                   uint64
	occWeighted, occCycles             float64
	xdrBytes, rowHits, rowAccesses     uint64
	refreshes                          uint64
	// Whole-pass wall times for the scheduler overhead: the scheduled
	// job against the direct pass that takes the same warm or cold path.
	schedNs, matchNs         float64
	schedPoints, matchPoints int
	// results are the scheduler's answers, per probed spec.
	results [][]core.SweepResult
	checked int // points compared across passes
}

// harvest runs a built system to completion and reads every layer's
// counters, each read in its own span.
func (ls *layerSample) harvest(tr *tracer, parent int, req string, sys *cell.System, total int64, chunk int, seed int64) (pointOut, error) {
	var err error
	ls.runNs = append(ls.runNs, float64(tr.timed("sim", "System.RunChecked", parent, req, func() { err = sys.RunChecked(0) })))
	if err != nil {
		return pointOut{}, err
	}
	ls.events += sys.Eng.Fired()
	var st eib.Stats
	tr.timed("eib", "EIB.Stats", parent, req, func() { st = sys.Bus.Stats() })
	ls.transfers += st.Transfers
	ls.waitCycles += int64(st.WaitCycles)
	tr.timed("mfc", "MFC.Stats", parent, req, func() {
		for _, s := range sys.SPEs {
			ls.mfcCommands += s.MFC().Stats().Commands
		}
	})
	tr.timed("xdr", "Memory.BankStats", parent, req, func() {
		for i := 0; i < perfctr.NumBanks; i++ {
			_ = sys.Mem.BankStats(i)
		}
	})
	tr.timed("ppe", "PPE.Stats", parent, req, func() { _ = sys.PPE.Stats() })
	var ru perfctr.Rollup
	ls.rollupNs = append(ls.rollupNs, float64(tr.timed("perfctr", "Counters.Rollup", parent, req, func() {
		ru = sys.Perf().Rollup()
		for i := range sys.SPEs {
			ru.AddOccupancy(i, sys.SPEs[i].MFC().OccupancyHist())
		}
	})))
	ls.grants += ru.EIBGrants
	ls.attempts += ru.EIBGrants + ru.EIBDenies + ru.EIBAbandons
	for spe := range ru.MFCOccCycles {
		for depth, c := range ru.MFCOccCycles[spe] {
			ls.occWeighted += float64(depth) * float64(c)
			ls.occCycles += float64(c)
		}
	}
	ls.xdrBytes += ru.XDRBytesTotal()
	for b := range ru.XDRRowHits {
		ls.rowHits += ru.XDRRowHits[b]
		ls.rowAccesses += ru.XDRRowHits[b] + ru.XDRRowMisses[b]
		ls.refreshes += ru.XDRRefreshes[b]
	}
	ls.points++
	now := sys.Eng.Now()
	return pointOut{Chunk: chunk, Seed: seed, Cycles: int64(now), Transfers: st.Transfers,
		WaitCycles: int64(st.WaitCycles), GBps: sys.GBps(total, now)}, nil
}

// coldPoint boots one grid point from scratch (cell.New +
// Scenario.Install), runs and harvests it.
func (ls *layerSample) coldPoint(tr *tracer, spec core.SweepSpec, chunk int, seed int64) (pointOut, error) {
	req := fmt.Sprintf("%s/%d/%d", spec.Scenario, chunk, seed)
	pid := tr.begin("bench", "probe.cold_point", 0, req)
	defer tr.end(pid)
	var sys *cell.System
	var total int64
	var err error
	ls.bootNs = append(ls.bootNs, float64(tr.timed("cell", "New+Install", pid, req, func() {
		sys = cell.New(pointConfig(seed))
		sys.SetPerf(&perfctr.Counters{})
		total, err = scenarioOf(spec, chunk).Install(sys)
	})))
	if err != nil {
		return pointOut{}, err
	}
	defer sys.Release()
	return ls.harvest(tr, pid, req, sys, total, chunk, seed)
}

// directPass runs every point of spec through direct calls, in the
// scheduler's grid order. warm stamps points from a snapshot of a
// template boot, as the scheduler's warm path does, when the scenario
// allows it; otherwise, and when warm is false, every point cold-boots.
func (ls *layerSample) directPass(tr *tracer, spec core.SweepSpec, warm bool) ([]pointOut, error) {
	start := time.Now()
	var snap *cell.Snapshot
	var unused *cell.System
	if warm {
		snap, unused = ls.template(tr, spec)
	}
	var out []pointOut
	for _, c := range spec.Chunks {
		for _, sd := range spec.Seeds {
			var p pointOut
			var err error
			if snap == nil {
				p, err = ls.coldPoint(tr, spec, c, sd)
			} else {
				p, err = ls.warmPoint(tr, snap, spec, c, sd)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	if warm {
		ls.matchNs += float64(time.Since(start))
		ls.matchPoints += len(out)
	}
	if unused != nil {
		// The template installed coroutine kernels whose goroutines wait
		// for their first activation; run it out so they exit.
		unused.Run()
		unused.Release()
	}
	return out, nil
}

// template boots the spec's first grid point and captures its snapshot,
// as the scheduler's Job.snapshot does. When the scenario is not
// snapshot-capable it returns the booted template instead, for the caller
// to dispose of outside the timed pass.
func (ls *layerSample) template(tr *tracer, spec core.SweepSpec) (*cell.Snapshot, *cell.System) {
	req := spec.Scenario + "/template"
	var sys *cell.System
	var err error
	ls.bootNs = append(ls.bootNs, float64(tr.timed("cell", "New+Install", 0, req, func() {
		sys = cell.New(pointConfig(spec.Seeds[0]))
		_, err = scenarioOf(spec, spec.Chunks[0]).Install(sys)
	})))
	if err != nil {
		return nil, sys
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return nil, sys
	}
	snap.Retire(sys)
	return snap, nil
}

// warmPoint stamps one grid point from snap, runs, harvests and retires
// it, exactly as the scheduler's warm path does.
func (ls *layerSample) warmPoint(tr *tracer, snap *cell.Snapshot, spec core.SweepSpec, chunk int, seed int64) (pointOut, error) {
	req := fmt.Sprintf("%s/%d/%d", spec.Scenario, chunk, seed)
	pid := tr.begin("bench", "probe.warm_point", 0, req)
	defer tr.end(pid)
	var sys *cell.System
	var total int64
	var err error
	ls.cloneNs = append(ls.cloneNs, float64(tr.timed("cell", "Snapshot.CloneFor", pid, req, func() {
		sys, total, err = snap.CloneFor(pointConfig(seed), chunk)
	})))
	if err != nil {
		return pointOut{}, err
	}
	sys.SetPerf(&perfctr.Counters{})
	p, err := ls.harvest(tr, pid, req, sys, total, chunk, seed)
	ls.retireNs = append(ls.retireNs, float64(tr.timed("cell", "Snapshot.Retire", pid, req, func() { snap.Retire(sys) })))
	ls.warm++
	return p, err
}

// schedPass runs spec as one job on a private one-worker scheduler
// without a cache, with a span per grid point from the worker's
// BeforePoint hook to the point's delivery.
func (ls *layerSample) schedPass(tr *tracer, spec core.SweepSpec) ([]core.SweepResult, error) {
	began := make(chan time.Time, 1)
	s := core.NewScheduler(core.SchedOptions{Workers: 1, MaxJobs: 1,
		BeforePoint: func(int, int64) { began <- time.Now() }})
	defer s.Close()
	spec.Workers = 1
	start := time.Now()
	jid := tr.begin("core", "Scheduler.job", 0, spec.Scenario)
	job, err := s.Submit(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	var out []core.SweepResult
	for pr := range job.Results() {
		t0 := <-began
		tr.add("cell", "scheduled_point", jid, fmt.Sprintf("%s/%d/%d", spec.Scenario, pr.Chunk, pr.Seed), t0, time.Now())
		if pr.Err != nil {
			return nil, pr.Err
		}
		out = append(out, pr.SweepResult)
	}
	tr.end(jid)
	ls.schedNs += float64(time.Since(start))
	ls.schedPoints += len(out)
	return out, nil
}

// probeSpecs runs each spec through direct calls that take the
// scheduler's warm-or-cold path and through the scheduler, in the order
// direct, scheduled, scheduled, direct (so drift in host speed cancels
// from the overhead), then cold-boots every point. It counts every point
// on which the passes disagree and keeps the scheduler's results.
func (ls *layerSample) probeSpecs(tr *tracer, specs []core.SweepSpec) (mismatches int, err error) {
	for _, spec := range specs {
		var direct [2][]pointOut
		var sched [2][]core.SweepResult
		if direct[0], err = ls.directPass(tr, spec, true); err != nil {
			return 0, err
		}
		for i := range sched {
			if sched[i], err = ls.schedPass(tr, spec); err != nil {
				return 0, err
			}
		}
		if direct[1], err = ls.directPass(tr, spec, true); err != nil {
			return 0, err
		}
		cold, err := ls.directPass(tr, spec, false)
		if err != nil {
			return 0, err
		}
		for i := range sched {
			pts := make([]pointOut, len(sched[i]))
			for k, r := range sched[i] {
				pts[k] = fromSweep(r)
			}
			mismatches += countMismatches(pts, direct[i]) + countMismatches(pts, cold)
			ls.checked += 2 * len(pts)
		}
		ls.results = append(ls.results, sched[0])
	}
	return mismatches, nil
}

// metrics reports the per-layer figures of the sample.
func (ls *layerSample) metrics(m metricSet) {
	n := float64(ls.points)
	m.put("sim.events_per_point", ratio(float64(ls.events), n), "count")
	var run float64
	for _, r := range ls.runNs {
		run += r
	}
	m.put("sim.ns_per_event", ratio(run, float64(ls.events)), "ns")
	m.put("cell.boot_ms", mean(ls.bootNs)/1e6, "ms")
	m.put("cell.clone_us", mean(ls.cloneNs)/1e3, "us")
	m.put("cell.retire_us", mean(ls.retireNs)/1e3, "us")
	m.put("cell.run_ms", mean(ls.runNs)/1e6, "ms")
	m.put("eib.transfers_per_point", ratio(float64(ls.transfers), n), "count")
	m.put("eib.grant_ratio", ratio(float64(ls.grants), float64(ls.attempts)), "ratio")
	m.put("eib.arbitration_attempts", float64(ls.attempts), "count")
	m.put("eib.wait_cycles_per_transfer", ratio(float64(ls.waitCycles), float64(ls.transfers)), "cycles")
	m.put("mfc.commands_per_point", ratio(float64(ls.mfcCommands), n), "count")
	m.put("mfc.mean_queue_depth", ratio(ls.occWeighted, ls.occCycles), "count")
	m.put("xdr.bytes_per_point", ratio(float64(ls.xdrBytes), n), "B")
	m.put("xdr.row_hit_ratio", ratio(float64(ls.rowHits), float64(ls.rowAccesses)), "ratio")
	m.put("xdr.row_accesses", float64(ls.rowAccesses), "count")
	m.put("xdr.refreshes_per_point", ratio(float64(ls.refreshes), n), "count")
	m.put("perfctr.rollup_us", mean(ls.rollupNs)/1e3, "us")
	// Scheduler overhead: what a scheduled point costs beyond the same
	// point driven by direct calls (template boot, clone, run, retire).
	perDirect := ratio(ls.matchNs, float64(ls.matchPoints))
	m.put("core.sched_overhead_us", (ratio(ls.schedNs, float64(ls.schedPoints))-perDirect)/1e3, "us")
	m.put("probe.points", n, "count")
}
