// Command cellsim runs a single DMA scenario on the Cell BE model and
// dumps the machine-level picture behind the number: the logical-to-
// physical SPE layout, per-ring occupancy, command counts, memory bank
// traffic and MFC statistics. It is the debugging companion to cellbench
// and the one way to instrument a single point. Every run is a one-point
// sweep on the shared scheduler, so -seed S -chunk C (plus -fault-seed 0
// under -faults) reproduces the (C, S) row of a cellbench -sweep, and the
// watchdog (-max-cycles, deadlock detection) always applies. Utilization
// over time comes from -metrics, which samples the counter block every
// -metrics-every cycles and drops the partial last window.
//
// Usage:
//
//	cellsim -scenario pair -chunk 4096 -seed 3
//	cellsim -scenario cycle -spes 8
//	cellsim -scenario mem -spes 4 -op copy
//	cellsim -scenario mem -spes 4 -perf -metrics mem.csv -metrics-every 50000
//	cellsim -scenario gups -spes 8 -chunk 64 -volume 65536
//	cellsim -scenario stream -op triad -spes 8 -chunk 16384
//	cellsim -scenario qcd -spes 8 -chunk 4096 -ring 1
//	cellsim -scenario cycle -spes 8 -faults mfc-retry:0.01,xdr-stall:0.05 -fault-seed 7
//	cellsim -scenario wedge -spes 4 -max-cycles 100000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cellbe/internal/cell"
	"cellbe/internal/core"
	"cellbe/internal/eib"
	"cellbe/internal/fault"
	"cellbe/internal/report"
	"cellbe/internal/sim"
	"cellbe/internal/trace"
)

func main() {
	var (
		scenario = flag.String("scenario", "pair", "pair, couples, cycle, mem, wedge, or a workload: gups, qcd, md, stream")
		spes     = flag.Int("spes", 2, "number of SPEs involved")
		chunk    = flag.Int("chunk", 16384, "DMA element size in bytes (gups takes 8..128)")
		op       = flag.String("op", "", "scenario operation: mem get/put/copy, gups get/put/both, stream copy/scale/add/triad (empty = kind default)")
		ring     = flag.Int("ring", 0, "qcd halo-exchange neighbour distance (0 = nearest neighbour)")
		dmalist  = flag.Bool("dmalist", false, "use the DMA-list kernel variant (GETL/PUTL)")
		volume   = flag.Int64("volume", 2<<20, "bytes per SPE")
		seed     = flag.Int64("seed", 0, "layout seed (0 = identity)")
		dumpN    = flag.Int("dump-transfers", 0, "print the last N EIB transfers as CSV (start,end,src,dst,bytes,ring,wait)")
		cfgIn    = flag.String("config", "", "JSON file overriding the machine configuration (see cellbench -dump-config)")

		faultSpec = flag.String("faults", "", "fault injection spec, e.g. mfc-retry:0.01,xdr-stall:0.05 (keys: "+strings.Join(fault.Keys(), ", ")+")")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the deterministic fault stream")
		maxCycles = flag.Int64("max-cycles", 0, "watchdog cycle budget (0 = unlimited)")

		traceOut     = flag.String("trace", "", "write a Perfetto/Chrome trace-event JSON to this file")
		traceFilter  = flag.String("trace-filter", "", "comma list of event categories to trace: "+strings.Join(trace.FilterNames(), ", ")+" (empty = all)")
		traceEvents  = flag.Int("trace-events", 1<<20, "trace ring-buffer capacity (oldest events drop beyond it)")
		metricsOut   = flag.String("metrics", "", "write a utilization timeseries CSV to this file")
		metricsEvery = flag.Int64("metrics-every", 10000, "metrics sampling interval in cycles")

		perfOn = flag.Bool("perf", false, "print the perf-counter report and the counter-vs-application bandwidth cross-check (exit 1 on disagreement)")
	)
	flag.Parse()

	cfg := cell.DefaultConfig()
	if *cfgIn != "" {
		data, err := os.ReadFile(*cfgIn)
		if err == nil {
			cfg, err = cell.ParseConfig(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cellsim: %s: %v\n", *cfgIn, err)
			os.Exit(2)
		}
	}
	cfg.Layout = cell.RandomLayout(*seed)
	if *faultSpec != "" {
		fc, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cellsim: %v\n", err)
			os.Exit(2)
		}
		cfg.Faults = fc
		cfg.FaultSeed = *faultSeed
	}

	var tracer *trace.Tracer
	var traceMask trace.Mask
	if *traceOut != "" {
		mask, err := trace.ParseFilter(*traceFilter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cellsim: %v\n", err)
			os.Exit(2)
		}
		traceMask = mask
		if *traceEvents <= 0 {
			fmt.Fprintf(os.Stderr, "cellsim: -trace-events must be positive\n")
			os.Exit(2)
		}
	}
	if *metricsOut != "" && *metricsEvery <= 0 {
		fmt.Fprintf(os.Stderr, "cellsim: -metrics-every must be positive\n")
		os.Exit(2)
	}
	if *dumpN < 0 {
		fmt.Fprintf(os.Stderr, "cellsim: -dump-transfers must not be negative\n")
		os.Exit(2)
	}
	var sampler *trace.Sampler
	// flushObservability writes the trace and metrics files; it runs on
	// failure paths too, so a wedged run still leaves an inspectable trace.
	flushObservability := func() {
		if *traceOut != "" && tracer != nil {
			if err := writeTrace(*traceOut, tracer); err != nil {
				fmt.Fprintf(os.Stderr, "cellsim: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "cellsim: wrote %d trace events to %s (%d dropped); open in ui.perfetto.dev\n",
				tracer.Len(), *traceOut, tracer.Dropped())
		}
		if sampler != nil {
			if err := writeMetrics(*metricsOut, sampler); err != nil {
				fmt.Fprintf(os.Stderr, "cellsim: %v\n", err)
				os.Exit(1)
			}
		}
	}

	fmt.Printf("layout (logical -> physical -> ramp):\n")
	for logical, phys := range cell.RandomLayout(*seed) {
		fmt.Printf("  SPE%d -> phys %d -> ramp %v\n", logical, phys, eib.PhysicalSPERamp(phys))
	}

	// The run is a one-point grid on the shared sweep scheduler: scenario
	// validation happens up front (a bad -chunk fails with a clear
	// message), and a wedged or panicking simulation comes back as a
	// structured per-point diagnostic instead of killing the process. The
	// Instrument hook sees the installed System before its first event:
	// it attaches the tracer and the metrics sampler, and returns true to
	// retain the System, since all the machine-level reporting below
	// reads it after the run.
	var sys *cell.System
	spec := core.SweepSpec{
		Scenario:  *scenario,
		SPEs:      *spes,
		Op:        *op,
		List:      *dmalist,
		Ring:      *ring,
		Chunks:    []int{*chunk},
		Seeds:     []int64{*seed},
		Volume:    *volume,
		Workers:   1,
		Base:      &cfg,
		MaxCycles: sim.Time(*maxCycles),
		Instrument: func(_ int, _ int64, s *cell.System) bool {
			sys = s
			switch {
			case *traceOut != "":
				tracer = trace.New(*traceEvents, traceMask)
			case *dumpN > 0:
				// Without -trace, -dump-transfers arms a tracer that
				// keeps just the last N transfers.
				tracer = trace.New(*dumpN, trace.Mask(1)<<trace.KindTransfer)
			}
			s.SetTracer(tracer)
			if *metricsOut != "" {
				sampler = s.StartMetrics(sim.Time(*metricsEvery))
			}
			return true
		},
	}
	results, err := core.RunSweep(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cellsim: %v\n", err)
		os.Exit(2)
	}
	r := results[0]
	if r.Err != nil {
		// A wedged or byte-losing run exits non-zero with the structured
		// diagnostic (stuck processes, outstanding MFC tags, cycle, ...).
		flushObservability()
		// r.Log carries the resolved layout plus the full diagnostic
		// (r.Err's text included), so it is the complete report.
		for _, line := range r.Log {
			fmt.Fprintf(os.Stderr, "cellsim: %s\n", line)
		}
		os.Exit(1)
	}
	cycles, gbps := r.Cycles, r.GBps
	flushObservability()
	fmt.Printf("\nscenario %s: %d SPEs, %dB elements, %d MB/SPE\n",
		*scenario, *spes, *chunk, *volume>>20)
	fmt.Printf("simulated %d cycles (%.3f ms at %.1f GHz), %d events\n",
		cycles, float64(cycles)/cfg.ClockGHz/1e6, cfg.ClockGHz, sys.Eng.Fired())
	fmt.Printf("aggregate bandwidth: %.2f GB/s\n", gbps)

	st := sys.Bus.Stats()
	fmt.Printf("\nEIB: %d transfers (%d ramp-local), %d MB, %d commands, wait %d cycles\n",
		st.Transfers, st.LocalTransfers, st.Bytes>>20, st.Commands, st.WaitCycles)
	// Ramp-local transfers never wait on the rings, so the meaningful
	// average excludes them (see eib.Stats.WaitCycles).
	if ring := st.Transfers - st.LocalTransfers; ring > 0 {
		fmt.Printf("  average wait per ring transfer: %.1f cycles\n",
			float64(st.WaitCycles)/float64(ring))
	}
	for i, busy := range st.BusyCycles {
		dir := "cw"
		if i >= 2 {
			dir = "ccw"
		}
		util := float64(busy) / float64(cycles) * 100
		fmt.Printf("  ring %d (%s): %d segment-cycles reserved (%.1f%% of one segment), %d transfers, %d MB\n",
			i, dir, busy, util, st.PerRingTransfers[i], st.PerRingBytes[i]>>20)
	}
	fmt.Printf("  per-direction: cw %d transfers / %d MB, ccw %d transfers / %d MB\n",
		st.PerDirCount[eib.Clockwise], st.PerDirBytes[eib.Clockwise]>>20,
		st.PerDirCount[eib.Counterclockwise], st.PerDirBytes[eib.Counterclockwise]>>20)
	for r := 0; r < eib.NumRamps; r++ {
		if st.PerRampTransfers[r] == 0 && st.PerRampRecvBytes[r] == 0 {
			continue
		}
		fmt.Printf("  ramp %-5v: sourced %4d MB in %d transfers, sank %4d MB\n",
			eib.RampID(r), st.PerRampBytes[r]>>20, st.PerRampTransfers[r], st.PerRampRecvBytes[r]>>20)
	}

	for b := 0; b < 2; b++ {
		bs := sys.Mem.BankStats(b)
		name := "local (MIC)"
		if b == 1 {
			name = "remote (IOIF)"
		}
		fmt.Printf("bank %d %s: read %d MB, wrote %d MB, %d requests, %d refreshes\n",
			b, name, bs.ReadBytes>>20, bs.WriteBytes>>20, bs.Requests, bs.Refreshes)
	}

	for i, sp := range sys.SPEs {
		ms := sp.MFC().Stats()
		if ms.Commands == 0 {
			continue
		}
		fmt.Printf("SPE%d MFC: %d commands, %d packets, %d MB\n",
			i, ms.Commands, ms.Packets, ms.Bytes>>20)
	}

	if inj := sys.Faults(); inj != nil {
		fs := inj.Stats()
		fmt.Printf("faults injected: %d (mfc-retry %d, xdr-stall %d, eib-slow %d, eib-outage %d, done-delay %d)\n",
			fs.Total(), fs.MFCRetries, fs.XDRStalls, fs.EIBSlow, fs.EIBOutages, fs.DoneDelays)
	}

	if *dumpN > 0 {
		// A transfer event sits on its source ramp's track and spans
		// [start, end): end is when the ring and ports are released.
		rampOf := make(map[trace.Track]eib.RampID, eib.NumRamps)
		for r := 0; r < eib.NumRamps; r++ {
			rampOf[trace.RampTrack(r)] = eib.RampID(r)
		}
		var transfers []trace.Event
		for _, ev := range tracer.Events() {
			if ev.Kind == trace.KindTransfer {
				transfers = append(transfers, ev)
			}
		}
		fmt.Printf("\nstart,end,src,dst,bytes,ring,wait\n")
		for _, ev := range transfers[max(0, len(transfers)-*dumpN):] {
			fmt.Printf("%d,%d,%v,%v,%d,%d,%d\n",
				ev.Start, ev.End, rampOf[ev.Track], eib.RampID(ev.C), ev.A, ev.B, ev.D)
		}
	}

	if *perfOn {
		rep := report.BuildPerf(report.PerfInput{
			Rollup:    sys.Perf().Rollup(),
			ClockGHz:  cfg.ClockGHz,
			AppGBps:   gbps,
			AppCycles: cycles,
		})
		fmt.Printf("\nperf counters:\n")
		if err := rep.Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "cellsim: %v\n", err)
			os.Exit(1)
		}
		if !rep.OK() {
			// A failed cross-check means the counter and application
			// derivations disagree — the methodology bug the validator
			// exists to catch. Fail loudly so CI notices.
			fmt.Fprintf(os.Stderr, "cellsim: perf cross-check failed (counter-derived vs application bandwidth beyond %.1f%%)\n",
				rep.Tolerance*100)
			os.Exit(1)
		}
	}
}

// writeTrace dumps the tracer's events as Perfetto-loadable JSON.
func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps a metrics sampler's timeseries as CSV.
func writeMetrics(path string, s *trace.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.TimeseriesCSV(f, s.Timeseries()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
