// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator's library APIs for a fixed time, checks
// every output, and prints its metrics; the last line of standard output
// is one JSON object.
//
//	python3 perfbench/run.py --workload stream-sweep --seed 1 --seconds 10 --trace 0
//
// Workloads: stream-sweep, paper-figures, serve-mixed. With --trace 0 it
// reports the end-to-end metrics, measured with tracing off. With
// --trace 1 it measures half the time untraced and half traced, then
// probes each layer by direct calls, and reports the per-layer metrics,
// the self time of every layer and the tracing overhead; the spans are
// written to .bench_build/trace-<workload>-seed<seed>.json.
//
// Run it from the repository root (the goldens are embedded, and
// temporary files go under .bench_build). --write-golden regenerates
// the goldens into perfbench/golden; --corrupt-golden perturbs the
// loaded goldens so the run must report failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procStart is as close to process start as the program can observe.
var procStart = time.Now()

const (
	// setupReps is how many times a run builds its workload from scratch;
	// setup_s is the median, and the last build is the one measured.
	setupReps = 7
	// minRounds is the fewest rounds a measured window runs, however
	// short --seconds is.
	minRounds = 3
)

// layerNames are the simulator's layers, plus the benchmark's own
// client-side work ("bench").
var layerNames = []string{"sim", "cell", "eib", "mfc", "xdr", "ppe", "perfctr", "core", "journal", "serve", "bench"}

type options struct {
	workload      string
	seed          int64
	seconds       float64
	trace         int
	corruptGolden bool
	writeGolden   bool
}

// workload is one benchmark workload. Its inputs derive from the seed
// alone.
type workload interface {
	// setup makes the inputs, starts the system under test and runs a
	// warm-up pass.
	setup() error
	// measure runs whole rounds until d has passed (at least minRounds);
	// tr is nil for an untraced window.
	measure(tr *tracer, d time.Duration) (*window, error)
	// verify checks the answers against goldens and independent
	// computations.
	verify(rep *report) error
	// layers probes the layers under tr and reports per-layer metrics.
	layers(tr *tracer, m metricSet, rep *report) error
	close()
}

func newWorkload(name string, seed int64, g *goldens) (workload, error) {
	switch name {
	case "stream-sweep":
		return &streamSweep{seed: seed, g: g}, nil
	case "paper-figures":
		return &paperFigures{seed: seed, g: g}, nil
	case "serve-mixed":
		return &serveMixed{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (stream-sweep, paper-figures, serve-mixed)", name)
}

// window is what one measured interval observed. A round is one pass over
// the workload's inputs (for serve-mixed, serveBlock requests); rates are
// medians over rounds, so a transient stall moves one round, not the run.
type window struct {
	wall, cpu                float64 // seconds
	points, requests, failed int64
	lat                      []float64 // ms per request; +Inf when it failed
	roundWall, roundCPU      []float64 // seconds per round
	roundPoints, roundReqs   []float64
	peakRSS                  float64 // MiB, at the end of the window
}

// addRound closes a round that delivered points and requests since the
// previous one.
func (w *window) addRound(wall, cpu float64, points, requests int64) {
	w.roundWall = append(w.roundWall, wall)
	w.roundCPU = append(w.roundCPU, cpu)
	w.roundPoints = append(w.roundPoints, float64(points))
	w.roundReqs = append(w.roundReqs, float64(requests))
}

func (w *window) rounds() int { return len(w.roundWall) }

// perRound is the median over rounds of num[i]/den[i].
func perRound(num, den []float64) float64 {
	r := make([]float64, len(num))
	for i := range num {
		r[i] = ratio(num[i], den[i])
	}
	return median(r)
}

// finish closes the window's totals.
func (w *window) finish(m meter) {
	w.wall, w.cpu = m.stop()
	w.peakRSS = peakRSSMB()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = 1e12 // a failed request misses any limit; JSON has no infinity
	}
	m[name] = metric{Value: v, Unit: unit}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: stream-sweep, paper-figures or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (the stream-sweep golden is for seed 1)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.BoolVar(&o.corruptGolden, "corrupt-golden", false, "perturb the goldens; the run must then report failures")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "regenerate perfbench/golden and exit")
	flag.Parse()
	var err error
	if o.writeGolden {
		err = writeGoldens()
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seed < 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need --seed >= 0, --seconds > 0 and --trace 0 or 1")
	}
	g, err := loadGoldens(o.corruptGolden)
	if err != nil {
		return err
	}
	var w workload
	var setups []float64
	for k := range setupReps {
		t0 := time.Now()
		if k == 0 {
			t0 = procStart
		}
		if w, err = newWorkload(o.workload, o.seed, g); err != nil {
			return err
		}
		if err := w.setup(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupReps-1 {
			w.close()
		}
	}
	defer w.close()

	fmt.Printf("machine: GOARCH=%s GOMAXPROCS=%d go=%s nproc=%d\n",
		runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.Version(), runtime.NumCPU())
	d := time.Duration(o.seconds * float64(time.Second))
	rep := &report{}
	m := metricSet{}
	if o.trace == 0 {
		win, err := w.measure(nil, d)
		if err != nil {
			return err
		}
		rep.window(o.workload, win)
		putEndToEnd(m, win, setups)
	} else {
		base, err := w.measure(nil, d/2)
		if err != nil {
			return err
		}
		rep.window(o.workload+" untraced half", base)
		tr := &tracer{}
		goroutines := runtime.NumGoroutine()
		traced, err := w.measure(tr, d/2)
		if err != nil {
			return err
		}
		// Coroutine kernels installed on a system that is then discarded
		// stay parked forever; their goroutines show up here.
		m.put("core.goroutines_added", float64(runtime.NumGoroutine()-goroutines), "count")
		rep.window(o.workload+" traced half", traced)
		if err := w.layers(tr, m, rep); err != nil {
			return err
		}
		self := tr.selfTimes()
		for _, l := range layerNames {
			m.put("self."+l+"_ms", float64(self[l])/1e6, "ms")
		}
		m.put("trace.overhead_pct", 100*(median(traced.roundWall)/median(base.roundWall)-1), "%")
		m.put("trace.spans", float64(tr.count()), "count")
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.dump(path); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", tr.count(), path)
	}
	if err := w.verify(rep); err != nil {
		return err
	}
	return rep.print(m)
}

// putEndToEnd reports the end-to-end metrics of an untraced window.
func putEndToEnd(m metricSet, win *window, setups []float64) {
	cpuMs := make([]float64, len(win.roundCPU))
	for i, c := range win.roundCPU {
		cpuMs[i] = 1000 * c
	}
	m.put("setup_s", median(setups), "s")
	m.put("points_per_s", perRound(win.roundPoints, win.roundWall), "1/s")
	m.put("cpu_ms_per_point", perRound(cpuMs, win.roundPoints), "ms")
	m.put("suite_s", median(win.roundWall), "s")
	m.put("suite_cpu_s", median(win.roundCPU), "s")
	m.put("requests_per_s", perRound(win.roundReqs, win.roundWall), "1/s")
	m.put("latency_p50_ms", percentile(win.lat, 50), "ms")
	m.put("latency_p99_ms", percentile(win.lat, 99), "ms")
	m.put("peak_rss_mb", win.peakRSS, "MiB")
	fmt.Printf("setup: median of %d builds %v s\n", len(setups), setups)
	fmt.Printf("rounds: wall s p10 %.4g p50 %.4g p90 %.4g\n", percentile(win.roundWall, 10), percentile(win.roundWall, 50), percentile(win.roundWall, 90))
	fmt.Printf("window: %.2f s wall, %.2f s CPU, %d rounds, %d requests, %d points, %d latency samples (%d beyond p99)\n",
		win.wall, win.cpu, win.rounds(), win.requests, win.points, len(win.lat), len(win.lat)/100)
}

// report collects correctness checks: every operation checked, every
// mismatch a failed one, and the must-fail self-checks.
type report struct {
	attempted, failed int64
	selfFailed        int
	lines             []string
}

func (r *report) count(what string, attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
	r.lines = append(r.lines, fmt.Sprintf("check %s: %d of %d failed", what, failed, attempted))
}

func (r *report) window(what string, win *window) {
	r.count(what+" requests", win.requests, win.failed)
}

// check compares got with want point by point.
func (r *report) check(what string, got, want []pointOut) {
	r.count(what, int64(max(len(got), len(want))), int64(countMismatches(got, want)))
}

// mustFail records a self-check that compared against a deliberately
// corrupted golden: it passes only when the comparison caught it.
func (r *report) mustFail(what string, caught bool) {
	if !caught {
		r.selfFailed++
	}
	r.lines = append(r.lines, fmt.Sprintf("self-check %s: corrupted golden caught=%v", what, caught))
}

func (r *report) print(m metricSet) error {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	fmt.Printf("failures: %d of %d operations (share %.4f)\n", r.failed, r.attempted, ratio(float64(r.failed), float64(r.attempted)))
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s = %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.failed == 0 && r.selfFailed == 0, r.attempted, r.failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
