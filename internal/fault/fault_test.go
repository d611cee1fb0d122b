package fault

import (
	"fmt"
	"strings"
	"testing"

	"cellbe/internal/sim"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("mfc-retry:0.01,xdr-stall:0.05")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if cfg.MFCRetryRate != 0.01 || cfg.XDRStallRate != 0.05 {
		t.Fatalf("wrong rates: %+v", cfg)
	}
	if cfg.EIBSlowRate != 0 || cfg.EIBOutageRate != 0 || cfg.DoneDelayRate != 0 {
		t.Fatalf("unset classes must stay zero: %+v", cfg)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed config should be enabled")
	}

	// Whitespace and trailing commas are tolerated; every key parses.
	cfg, err = ParseSpec(" eib-slow:0.1 , eib-outage:0.2, done-delay:0.3 ,")
	if err != nil {
		t.Fatalf("ParseSpec with spaces: %v", err)
	}
	if cfg.EIBSlowRate != 0.1 || cfg.EIBOutageRate != 0.2 || cfg.DoneDelayRate != 0.3 {
		t.Fatalf("wrong rates: %+v", cfg)
	}

	if cfg, err := ParseSpec(""); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec must parse to a disabled config, got %+v, %v", cfg, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"mfc-retry",         // no rate
		"bogus:0.1",         // unknown key
		"mfc-retry:x",       // unparsable rate
		"mfc-retry:1.0",     // rate 1 would loop forever in MFCRetry
		"mfc-retry:-0.1",    // negative
		"mfc-retry=0.1",     // wrong separator
		"mfc-retry:0.1;x:2", // garbage after valid field
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): expected error", spec)
		}
	}
}

func TestKeysCoverConfig(t *testing.T) {
	// Every advertised key must round-trip through ParseSpec into an
	// enabled config, so the CLI usage string never lies.
	for _, k := range Keys() {
		cfg, err := ParseSpec(k + ":0.5")
		if err != nil {
			t.Fatalf("key %q: %v", k, err)
		}
		if !cfg.Enabled() {
			t.Errorf("key %q does not enable any fault class", k)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if got := New(Config{}, 42); got != nil {
		t.Fatalf("New with disabled config must return nil, got %v", got)
	}
	if i.MFCRetry() != 0 || i.XDRStall() != 0 || i.EIBSlow() != 0 || i.DoneDelay() != 0 {
		t.Fatal("nil injector must inject nothing")
	}
	if i.EIBOutage(4) != -1 {
		t.Fatal("nil injector must never take a ring out")
	}
	if i.Stats().Total() != 0 {
		t.Fatal("nil injector must report zero stats")
	}
}

// drawAll consumes n decisions of every class and returns a transcript.
func drawAll(inj *Injector, n int) string {
	var sb strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d;",
			inj.MFCRetry(), inj.XDRStall(), inj.EIBSlow(), inj.EIBOutage(4), inj.DoneDelay())
	}
	return sb.String()
}

func TestStreamDeterminism(t *testing.T) {
	cfg := Config{
		MFCRetryRate:  0.3,
		XDRStallRate:  0.3,
		EIBSlowRate:   0.3,
		EIBOutageRate: 0.3,
		DoneDelayRate: 0.3,
	}
	a := New(cfg, 7)
	b := New(cfg, 7)
	if got, want := drawAll(a, 1000), drawAll(b, 1000); got != want {
		t.Fatal("same (config, seed) must produce the same fault stream")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Total() == 0 {
		t.Fatal("at 30% rates, 1000 draws must inject some faults")
	}
	c := New(cfg, 8)
	if drawAll(a, 1000) == drawAll(c, 1000) {
		t.Fatal("different seeds should produce different fault streams")
	}
}

func TestMFCRetryBackoffBounded(t *testing.T) {
	// Even at a 90% denial rate every retry sequence must terminate, never
	// go negative, and never exceed its denial count times the backoff cap.
	inj := New(Config{MFCRetryRate: 0.9}, 1)
	var prevRetries int64
	for k := 0; k < 10000; k++ {
		d := inj.MFCRetry()
		denials := inj.Stats().MFCRetries - prevRetries
		prevRetries = inj.Stats().MFCRetries
		if d < 0 || d > sim.Time(denials)*MaxRetryBackoff {
			t.Fatalf("delay %d outside [0, %d denials * cap]", d, denials)
		}
		if denials == 0 && d != 0 {
			t.Fatalf("delay %d without a denial", d)
		}
	}
	if prevRetries == 0 {
		t.Fatal("expected denials at 90% rate")
	}
}

func TestEIBOutageRange(t *testing.T) {
	inj := New(Config{EIBOutageRate: 0.999}, 3)
	seen := map[int]bool{}
	for k := 0; k < 1000; k++ {
		r := inj.EIBOutage(4)
		if r < -1 || r >= 4 {
			t.Fatalf("ring %d out of range", r)
		}
		seen[r] = true
	}
	for ring := 0; ring < 4; ring++ {
		if !seen[ring] {
			t.Errorf("ring %d never chosen in 1000 outages", ring)
		}
	}
	if inj.EIBOutage(1) != -1 {
		t.Fatal("a single-ring EIB must never lose its only ring")
	}
}
