package report

import (
	"strings"
	"testing"

	"cellbe/internal/perfctr"
)

// TestBuildPerfExactAgreement: when the counter bytes and the
// application figure describe the same bytes over the same window, the
// derived bandwidths are identical and the check passes with delta 0.
func TestBuildPerfExactAgreement(t *testing.T) {
	// 2 GB over 1e9 cycles at 2 GHz = 4 GB/s both ways.
	ru := perfctr.Rollup{EIBBytes: 2 << 30}
	rep := BuildPerf(PerfInput{
		Rollup:    ru,
		ClockGHz:  2,
		AppGBps:   float64(ru.EIBBytes) * 2 / 1e9,
		AppCycles: 1e9,
	})
	if len(rep.Checks) != 1 || rep.Checks[0].Name != "eib" {
		t.Fatalf("checks = %+v, want one eib check", rep.Checks)
	}
	if !rep.OK() || rep.Checks[0].Delta != 0 {
		t.Errorf("exact agreement failed: %+v", rep.Checks[0])
	}
	if rep.Tolerance != PerfTolerance {
		t.Errorf("tolerance = %v, want default %v", rep.Tolerance, PerfTolerance)
	}
}

// TestBuildPerfXDRCheckGating: the xdr check appears only when the
// counters saw main-memory traffic.
func TestBuildPerfXDRCheckGating(t *testing.T) {
	in := PerfInput{Rollup: perfctr.Rollup{EIBBytes: 1000}, ClockGHz: 2, AppGBps: 2e-6, AppCycles: 1000}
	if rep := BuildPerf(in); len(rep.Checks) != 1 {
		t.Errorf("no XDR traffic: %d checks, want 1", len(rep.Checks))
	}
	in.Rollup.XDRBytes[0] = 1000
	if rep := BuildPerf(in); len(rep.Checks) != 2 || rep.Checks[1].Name != "xdr" {
		t.Errorf("with XDR traffic: checks %+v, want eib + xdr", BuildPerf(in).Checks)
	}
}

// TestBuildPerfWindowMismatch reproduces the counter-window pitfall at
// the unit level: same bytes, but the counter bandwidth derived over a
// 9% longer window than the application measured. The check must fail.
func TestBuildPerfWindowMismatch(t *testing.T) {
	ru := perfctr.Rollup{EIBBytes: 1 << 30}
	appCycles := int64(1e8)
	rep := BuildPerf(PerfInput{
		Rollup:       ru,
		ClockGHz:     2,
		AppGBps:      float64(ru.EIBBytes) * 2 / float64(appCycles),
		AppCycles:    1e8,
		WindowCycles: 109_000_000,
	})
	if rep.OK() {
		t.Fatalf("9%% window skew passed the cross-check: %+v", rep.Checks)
	}
	d := rep.Checks[0].Delta
	if d < 0.07 || d > 0.10 {
		t.Errorf("delta = %.4f, want ~0.083 (1 - 100/109)", d)
	}
}

// TestBuildPerfAppSilent: counters saw traffic but the application
// measured nothing — that is a methodology bug, not a pass.
func TestBuildPerfAppSilent(t *testing.T) {
	rep := BuildPerf(PerfInput{Rollup: perfctr.Rollup{EIBBytes: 4096}, ClockGHz: 2, AppGBps: 0, AppCycles: 1000})
	if rep.OK() {
		t.Error("counters-vs-silent-app passed")
	}
}

// TestBuildPerfToleranceOverride: a caller-supplied tolerance replaces
// the default.
func TestBuildPerfToleranceOverride(t *testing.T) {
	ru := perfctr.Rollup{EIBBytes: 1 << 20}
	app := float64(ru.EIBBytes) * 2 / 1e6
	rep := BuildPerf(PerfInput{Rollup: ru, ClockGHz: 2, AppGBps: app * 1.05, AppCycles: 1e6, Tolerance: 0.10})
	if !rep.OK() {
		t.Errorf("5%% delta under a 10%% tolerance failed: %+v", rep.Checks)
	}
}

// TestPerfReportWrite smoke-tests the rendered report: counter totals
// and a verdict line per check.
func TestPerfReportWrite(t *testing.T) {
	ru := perfctr.Rollup{EIBBytes: 1 << 20, EIBGrants: 256}
	ru.XDRBytes[0] = 4096
	rep := BuildPerf(PerfInput{
		Rollup:   ru,
		ClockGHz: 2, AppGBps: float64(ru.EIBBytes) * 2 / 1e6, AppCycles: 1e6,
	})
	var b strings.Builder
	if err := rep.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"eib.bytes", "xdr.bank0.bytes", "cross-check", "eib ", "xdr "} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
