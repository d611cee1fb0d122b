package cellbe

// The perf-counter subsystem (internal/perfctr) is the model's only
// counter store, so it is validated against the application side. The
// cross-validation test is the acceptance criterion from the
// paper-reproduction side: bandwidth *derived from counters* (bytes x
// clock / window) must agree with the bandwidth the application itself
// measures, within report.PerfTolerance, on all four canonical
// scenarios. The window-mismatch regression test reproduces the classic
// counter pitfall — deriving over a window that is not the application's
// measurement window — and asserts the cross-check catches it.

import (
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/fault"
	"cellbe/internal/perfctr"
	"cellbe/internal/report"
)

// canonicalScenarios are the four golden cases of determinism_test.go.
func canonicalScenarios() []struct {
	name string
	sc   cell.Scenario
} {
	const volume = 1 << 20
	return []struct {
		name string
		sc   cell.Scenario
	}{
		{"pair", cell.Scenario{Kind: "pair", SPEs: 2, Chunk: 4096, Volume: volume}},
		{"couples", cell.Scenario{Kind: "couples", SPEs: 8, Chunk: 4096, Volume: volume}},
		{"cycle", cell.Scenario{Kind: "cycle", SPEs: 8, Chunk: 4096, Volume: volume}},
		{"mem", cell.Scenario{Kind: "mem", SPEs: 4, Chunk: 16384, Volume: volume, Op: "get"}},
	}
}

// runCounted runs sc at a fixed layout seed, returning the finished
// system, its counters and the payload byte total the scenario accounts
// for.
func runCounted(t *testing.T, sc cell.Scenario, seed int64) (*cell.System, *perfctr.Counters, int64) {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.Layout = cell.RandomLayout(seed)
	sys := cell.New(cfg)
	total, err := sc.Install(sys)
	if err != nil {
		t.Fatalf("install %s: %v", sc.Kind, err)
	}
	sys.Run()
	return sys, sys.Perf(), total
}

// TestPerfMFCRetriesCountDelayedPackets pins what the MFC retry counter
// means: bus packets whose issue a command-bus denial delayed, not the
// denials themselves. A packet can be denied several times in a row, so
// under heavy retry faults the counters' total must stay above zero and
// below the injector's denial count.
func TestPerfMFCRetriesCountDelayedPackets(t *testing.T) {
	cfg := cell.DefaultConfig()
	cfg.Faults = fault.Config{MFCRetryRate: 0.3}
	cfg.FaultSeed = 7
	sys := cell.New(cfg)
	sc := cell.Scenario{Kind: "mem", SPEs: 4, Chunk: 4096, Volume: 256 << 10, Op: "get"}
	if _, err := sc.Install(sys); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunChecked(0); err != nil {
		t.Fatal(err)
	}
	packets := sys.Perf().Rollup().MFCRetries
	denials := sys.Faults().Stats().MFCRetries
	if packets == 0 || int64(packets) >= denials {
		t.Errorf("delayed packets %d, denials %d: want 0 < packets < denials", packets, denials)
	}
}

// TestPerfCrossValidation is the subsystem's acceptance criterion:
// counter-derived EIB (and, where main memory is involved, XDR)
// bandwidth must agree with the application-measured figure within the
// documented tolerance on every canonical scenario.
func TestPerfCrossValidation(t *testing.T) {
	for _, tc := range canonicalScenarios() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys, pc, total := runCounted(t, tc.sc, 3)
			cycles := sys.Eng.Now()
			rep := report.BuildPerf(report.PerfInput{
				Rollup:    pc.Rollup(),
				ClockGHz:  cell.DefaultConfig().ClockGHz,
				AppGBps:   sys.GBps(total, cycles),
				AppCycles: cycles,
			})
			wantChecks := 1 // eib only: no main-memory traffic in SPE-to-SPE scenarios
			if tc.sc.Kind == "mem" {
				wantChecks = 2 // eib + xdr
			}
			if len(rep.Checks) != wantChecks {
				t.Fatalf("got %d cross-checks, want %d", len(rep.Checks), wantChecks)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("%s: counters %.3f GB/s vs app %.3f GB/s, delta %.2f%% exceeds %.0f%% tolerance",
						c.Name, c.CounterGBps, c.AppGBps, c.Delta*100, rep.Tolerance*100)
				}
			}
		})
	}
}

// TestPerfWindowMismatchRegression reproduces the counter pitfall the
// cross-check exists to police: deriving bandwidth over a window ~9%
// longer than the application's measurement window (on hardware: the
// counter collection interval vs the benchmark's timed region) deflates
// the counter figure silently. The validator must flag it, not average
// it away.
func TestPerfWindowMismatchRegression(t *testing.T) {
	sc := canonicalScenarios()[0].sc // pair
	sys, pc, total := runCounted(t, sc, 3)
	cycles := sys.Eng.Now()
	rep := report.BuildPerf(report.PerfInput{
		Rollup:       pc.Rollup(),
		ClockGHz:     cell.DefaultConfig().ClockGHz,
		AppGBps:      sys.GBps(total, cycles),
		AppCycles:    cycles,
		WindowCycles: cycles * 109 / 100, // the skewed window
	})
	if rep.OK() {
		t.Fatalf("cross-check passed with a 9%% window mismatch; it must fail (checks: %+v)", rep.Checks)
	}
	for _, c := range rep.Checks {
		if c.Name == "eib" && c.Delta < 0.05 {
			t.Errorf("eib delta %.2f%% too small for a 9%% window skew", c.Delta*100)
		}
	}
}
