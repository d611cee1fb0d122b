// Command cellbench runs the paper's microbenchmark suite against the
// Cell Broadband Engine model and prints the reproduced figures.
//
// Usage:
//
//	cellbench -list
//	cellbench -experiment spe-mem-get
//	cellbench -all -format csv > results.csv
//	cellbench -experiment spe-couples -paper -full
//	cellbench -sweep cycle -spes 8 -chunks 1024,4096,16384 -seeds 32 -workers 8
//
// The default parameters move 2 MB per SPE across 10 sampled SPE layouts;
// -paper switches to the full 32 MB per SPE of the original setup.
//
// The -sweep mode fans a grid of independent simulations (layout seeds x
// chunk sizes of one scenario) across worker goroutines — each grid point
// owns its event engine, so results are identical for any -workers value
// — and prints one CSV row per point. To trace, sample or cross-check the
// perf counters of one point, rerun it in cellsim with -seed S -chunk C
// (and -fault-seed 0 when the sweep injects faults).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/conformance"
	"cellbe/internal/core"
	"cellbe/internal/fault"
	"cellbe/internal/report"
	"cellbe/internal/sim"
)

func main() { os.Exit(run()) }

// run is the command; it returns the process exit code, so deferred
// work (the CPU profile) completes on every path.
func run() (code int) {
	var (
		list   = flag.Bool("list", false, "list available experiments and exit")
		name   = flag.String("experiment", "", "experiment to run (see -list)")
		all    = flag.Bool("all", false, "run every experiment")
		format = flag.String("format", "table", "output format: table, csv, or chart")
		full   = flag.Bool("full", false, "tables include min/max/median columns")
		paper  = flag.Bool("paper", false, "use the paper's full 32 MB per-SPE volume (slow)")
		runs   = flag.Int("runs", 0, "override the number of layout samples (default 10)")
		seed   = flag.Int64("seed", 1, "first layout seed")
		quiet  = flag.Bool("q", false, "suppress progress messages on stderr")
		cfgIn  = flag.String("config", "", "JSON file overriding the machine configuration")
		dump   = flag.Bool("dump-config", false, "print the default machine configuration as JSON and exit")

		faultSpec = flag.String("faults", "", "fault injection spec, e.g. mfc-retry:0.01,xdr-stall:0.05 (keys: "+strings.Join(fault.Keys(), ", ")+")")
		faultSeed = flag.Int64("fault-seed", 0, "seed for the deterministic fault stream (0 = derive from layout seed)")
		maxCycles = flag.Int64("max-cycles", 0, "watchdog cycle budget per simulation (0 = unlimited)")

		conform      = flag.Bool("conformance", false, "evaluate every paper claim of internal/conformance and print a PASS/FAIL report")
		conformShort = flag.Bool("conformance-short", false, "with -conformance: only the quick core-physics subset")
		conformDoc   = flag.Bool("conformance-doc", false, "print EXPERIMENTS.md regenerated from the conformance claims and exit")

		sweep   = flag.String("sweep", "", "sweep a scenario (pair, couples, cycle, mem, or a workload: gups, qcd, md, stream) over seeds x chunks")
		spes    = flag.Int("spes", 8, "sweep: number of SPEs involved")
		op      = flag.String("op", "", "sweep: scenario operation — mem get/put/copy, gups get/put/both, stream copy/scale/add/triad (empty = kind default)")
		dmalist = flag.Bool("dmalist", false, "sweep: use the DMA-list kernel variant (GETL/PUTL)")
		chunks  = flag.String("chunks", "1024,4096,16384", "sweep: comma-separated DMA element sizes")
		seeds   = flag.Int("seeds", 10, "sweep: number of layout seeds (starting at -seed)")
		volume  = flag.Int64("volume", 1<<20, "sweep: bytes per SPE")
		workers = flag.Int("workers", 0, "sweep: concurrent simulations (0 = GOMAXPROCS)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run (runtime/pprof format) to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
				code = max(code, 1)
			}
		}()
	}

	if *dump {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cell.DefaultConfig()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-18s %-22s %s\n", e.Name, e.Figure, e.Description)
		}
		return 0
	}

	if *conformDoc {
		fmt.Print(conformance.Doc())
		return 0
	}

	base, err := baseConfig(*cfgIn, *faultSpec, *faultSeed, *maxCycles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
		return 2
	}
	if *conform {
		params := conformance.QuickParams(*conformShort)
		params.Base = base
		d := conformance.NewDataset(params)
		if failed := conformance.Report(os.Stdout, conformance.EvalAll(d, *conformShort)); failed > 0 {
			return 1
		}
		return 0
	}

	if *sweep != "" {
		if err := runSweep(*sweep, *spes, *op, *dmalist, *chunks, *seeds, *seed, *volume, *workers, base, *quiet); err != nil {
			fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
			return 2
		}
		return 0
	}

	params := core.DefaultParams()
	if *paper {
		params = core.PaperParams()
	}
	if *runs > 0 {
		params.Runs = *runs
	}
	params.FirstSeed = *seed
	params.Base = base

	var experiments []core.Experiment
	switch {
	case *all:
		experiments = core.Experiments()
	case *name != "":
		e, err := core.Lookup(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		experiments = []core.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "cellbench: need -experiment NAME, -all, or -list")
		flag.Usage()
		return 2
	}

	var write func(*core.Result) error
	switch *format {
	case "table":
		write = func(res *core.Result) error { return report.Table(os.Stdout, res, *full) }
	case "csv":
		write = func(res *core.Result) error { return report.CSV(os.Stdout, res) }
	case "chart":
		write = func(res *core.Result) error { return report.Chart(os.Stdout, res, 50) }
	default:
		fmt.Fprintf(os.Stderr, "cellbench: unknown format %q\n", *format)
		return 2
	}

	for _, e := range experiments {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s (%s)...\n", e.Name, e.Figure)
		}
		start := time.Now()
		res, err := e.Run(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cellbench: %s: %v\n", e.Name, err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond))
		}
		if err := write(res); err != nil {
			fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
			return 1
		}
		fmt.Println()
	}
	return 0
}

// baseConfig combines the -config overlay with the fault-injection and
// watchdog flags into the machine configuration every mode runs on.
func baseConfig(cfgIn, faultSpec string, faultSeed, maxCycles int64) (*cell.Config, error) {
	base := cell.DefaultConfig()
	if cfgIn != "" {
		data, err := os.ReadFile(cfgIn)
		if err == nil {
			base, err = cell.ParseConfig(data)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v", cfgIn, err)
		}
	}
	if faultSpec != "" {
		fc, err := fault.ParseSpec(faultSpec)
		if err != nil {
			return nil, err
		}
		base.Faults = fc
		base.FaultSeed = faultSeed
	}
	if maxCycles > 0 {
		base.MaxCycles = sim.Time(maxCycles)
	}
	return &base, nil
}

// runSweep parses the sweep flags, fans the grid across workers via
// core.RunSweep and prints one CSV row per grid point.
func runSweep(scenario string, spes int, op string, dmalist bool, chunkList string, seedCount int, firstSeed, volume int64, workers int, base *cell.Config, quiet bool) error {
	var chunkSizes []int
	for _, f := range strings.Split(chunkList, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad -chunks entry %q: %v", f, err)
		}
		chunkSizes = append(chunkSizes, c)
	}
	if seedCount <= 0 {
		return fmt.Errorf("-seeds must be positive")
	}
	seedList := make([]int64, seedCount)
	for i := range seedList {
		seedList[i] = firstSeed + int64(i)
	}
	start := time.Now()
	results, err := core.RunSweep(core.SweepSpec{
		Scenario: scenario,
		SPEs:     spes,
		Op:       op,
		List:     dmalist,
		Chunks:   chunkSizes,
		Seeds:    seedList,
		Volume:   volume,
		Workers:  workers,
		Base:     base,
	})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "swept %d points in %v\n", len(results), time.Since(start).Round(time.Millisecond))
	}
	failed := 0
	fmt.Println("scenario,chunk,seed,cycles,GBps,transfers,wait_cycles,commands,error")
	for _, r := range results {
		errCol := ""
		if r.Err != nil {
			failed++
			// Keep the CSV one row per point: first line of the
			// diagnostic, quoted.
			errCol = strings.SplitN(r.Err.Error(), "\n", 2)[0]
			errCol = strings.ReplaceAll(errCol, `"`, `""`)
		}
		fmt.Printf("%s,%d,%d,%d,%.3f,%d,%d,%d,\"%s\"\n",
			scenario, r.Chunk, r.Seed, r.Cycles, r.GBps, r.Transfers, r.WaitCycles, r.Commands, errCol)
	}
	// Per-point diagnostics, serialized after the CSV so concurrent grid
	// points can never interleave lines on stderr. Results arrive sorted
	// by (chunk, seed), so the order is deterministic too.
	for _, r := range results {
		for _, line := range r.Log {
			fmt.Fprintf(os.Stderr, "point chunk=%d seed=%d: %s\n", r.Chunk, r.Seed, line)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d grid points failed (see error column)", failed, len(results))
	}
	return nil
}
