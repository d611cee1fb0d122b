package report

import (
	"fmt"
	"io"

	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
)

// PerfTolerance is the documented agreement bound between counter-derived
// and application-measured bandwidth: the relative delta must stay below
// 2%. On the four canonical scenarios the two derivations share both the
// byte count and the cycle window, so they agree exactly; the tolerance
// exists to catch the methodology bugs that break that identity — above
// all deriving over a window that is not the application's measurement
// window (SNIPPETS.md snippet 3's counter-vs-test-duration pitfall, a
// silent ~9% skew on real hardware).
const PerfTolerance = 0.02

// PerfInput is everything BuildPerf needs: the counter rollup, the
// application-side measurement to validate against, and the window the
// counters are read over.
type PerfInput struct {
	Rollup perfctr.Rollup

	ClockGHz float64
	// AppGBps/AppCycles are the application-measured bandwidth and the
	// cycle window it was measured over (bytes moved / elapsed cycles,
	// as every scenario reports).
	AppGBps   float64
	AppCycles sim.Time
	// WindowCycles is the window the counter bandwidth is derived over.
	// Zero means AppCycles — the windowing rule: counters must be read
	// over the application's own measurement window, or the cross-check
	// is comparing different experiments. A deliberate mismatch here is
	// how the validator's regression test reproduces snippet 3's bug.
	WindowCycles sim.Time
	// Tolerance overrides PerfTolerance when positive.
	Tolerance float64
}

// PerfCheck is one counter-vs-application bandwidth comparison.
type PerfCheck struct {
	Name        string
	CounterGBps float64
	AppGBps     float64
	Delta       float64 // |counter - app| / app (app == 0: 0 or +Inf)
	OK          bool
}

// PerfReport is the derived-bandwidth report: counter totals and the
// cross-validation checks. Bandwidth over time is the metrics sampler's
// job (cell.System.StartMetrics), not this report's.
type PerfReport struct {
	Rollup    perfctr.Rollup
	ClockGHz  float64
	Window    sim.Time
	Tolerance float64
	Checks    []PerfCheck
}

// OK reports whether every cross-check passed.
func (r *PerfReport) OK() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// gbps converts a byte count over a cycle window at clk GHz.
func gbps(bytes uint64, cycles sim.Time, clk float64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(bytes) * clk / float64(cycles)
}

// BuildPerf derives bandwidth from the counter rollup and cross-validates
// it against the application measurement. The EIB check always runs; the
// XDR check runs only when the counters saw main-memory traffic (pure
// SPE-to-SPE scenarios never touch the banks, so an XDR comparison there
// would validate 0 against 0).
func BuildPerf(in PerfInput) *PerfReport {
	tol := in.Tolerance
	if tol <= 0 {
		tol = PerfTolerance
	}
	win := in.WindowCycles
	if win <= 0 {
		win = in.AppCycles
	}
	r := &PerfReport{Rollup: in.Rollup, ClockGHz: in.ClockGHz, Window: win, Tolerance: tol}

	check := func(name string, counter float64) {
		c := PerfCheck{Name: name, CounterGBps: counter, AppGBps: in.AppGBps}
		switch {
		case in.AppGBps > 0:
			c.Delta = counter/in.AppGBps - 1
			if c.Delta < 0 {
				c.Delta = -c.Delta
			}
		case counter > 0:
			c.Delta = 1 // app measured nothing, counters saw traffic
		}
		c.OK = c.Delta <= tol
		r.Checks = append(r.Checks, c)
	}

	check("eib", gbps(in.Rollup.EIBBytes, win, in.ClockGHz))
	if xb := in.Rollup.XDRBytesTotal(); xb > 0 {
		check("xdr", gbps(xb, win, in.ClockGHz))
	}
	return r
}

// Write renders the counter report: totals, then one line per
// cross-check.
func (r *PerfReport) Write(w io.Writer) error {
	ru := &r.Rollup
	rows := [][]string{
		{"counter", "value"},
		{"eib.bytes", fmt.Sprintf("%d", ru.EIBBytes)},
		{"eib.grants", fmt.Sprintf("%d", ru.EIBGrants)},
		{"eib.local_grants", fmt.Sprintf("%d", ru.EIBLocal)},
		{"eib.denies", fmt.Sprintf("%d", ru.EIBDenies)},
		{"eib.abandons", fmt.Sprintf("%d", ru.EIBAbandons)},
		{"eib.busy_cycles", fmt.Sprintf("%d", ru.EIBBusyCycles)},
		{"eib.wait_cycles", fmt.Sprintf("%d", ru.EIBWaitCycles)},
		{"eib.commands", fmt.Sprintf("%d", ru.EIBCommands)},
	}
	for i := range ru.XDRBytes {
		pfx := fmt.Sprintf("xdr.bank%d", i)
		rows = append(rows,
			[]string{pfx + ".bytes", fmt.Sprintf("%d", ru.XDRBytes[i])},
			[]string{pfx + ".row_hits", fmt.Sprintf("%d", ru.XDRRowHits[i])},
			[]string{pfx + ".row_misses", fmt.Sprintf("%d", ru.XDRRowMisses[i])},
			[]string{pfx + ".refreshes", fmt.Sprintf("%d", ru.XDRRefreshes[i])},
		)
	}
	rows = append(rows,
		[]string{"mfc.retries", fmt.Sprintf("%d", ru.MFCRetries)}, // packets delayed, not denials
		[]string{"ppe.missq_stalls", fmt.Sprintf("%d", ru.PPEMissQStalls)},
		[]string{"ppe.fills", fmt.Sprintf("%d", ru.PPEFills)},
		[]string{"ppe.prefetch_fills", fmt.Sprintf("%d", ru.PPEPrefetchFills)},
	)
	if err := writeAligned(w, rows); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\ncross-check (window %d cycles, tolerance %.1f%%):\n", r.Window, r.Tolerance*100); err != nil {
		return err
	}
	for _, c := range r.Checks {
		verdict := "OK"
		if !c.OK {
			verdict = "FAIL"
		}
		if _, err := fmt.Fprintf(w, "  %-4s counters %7.3f GB/s  app %7.3f GB/s  delta %6.2f%%  %s\n",
			c.Name, c.CounterGBps, c.AppGBps, c.Delta*100, verdict); err != nil {
			return err
		}
	}
	return nil
}
