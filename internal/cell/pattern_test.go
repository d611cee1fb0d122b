package cell

import (
	"errors"
	"strings"
	"testing"
)

func TestWorkloadValidate(t *testing.T) {
	ok := []Scenario{
		{Kind: "gups", SPEs: 8, Chunk: 8, Volume: 1 << 16, Op: "both"},
		{Kind: "gups", SPEs: 4, Chunk: 128, Volume: 1 << 16, Op: "get"},
		{Kind: "gups", SPEs: 2, Chunk: 64, Volume: 1 << 16, Op: "put", AddrSeeds: []int64{7, 11}},
		{Kind: "qcd", SPEs: 8, Chunk: 4096, Volume: 1 << 20},
		{Kind: "qcd", SPEs: 4, Chunk: 1024, Volume: 1 << 18, Ring: 3},
		{Kind: "md", SPEs: 8, Chunk: 2048, Volume: 1 << 19},
		{Kind: "stream", SPEs: 8, Chunk: 16384, Volume: 1 << 20, Op: "triad"},
		{Kind: "stream", SPEs: 1, Chunk: 16, Volume: 1 << 10, Op: "copy"},
		{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{
				{Access: "seq", Op: "get", Bytes: 4096},
				{Access: "stride", Op: "put", Bytes: 4096, Stride: 1024},
				{Access: "ring", Bytes: 512},
				{Access: "compute", Cycles: 1000},
				{Access: "rand", Op: "both", Bytes: 2048},
			},
			Reps: 2, Region: 64 << 10,
		}},
	}
	for _, sc := range ok {
		if err := sc.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", sc, err)
		}
	}
	bad := []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Kind: "gups", SPEs: 8, Chunk: 256, Volume: 1 << 16, Op: "both"}, "element envelope"},
		{Scenario{Kind: "gups", SPEs: 8, Chunk: 12, Volume: 1 << 16, Op: "both"}, "element envelope"},
		{Scenario{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 0, Op: "both"}, "volume"},
		{Scenario{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 1 << 16, Op: "triad"}, "not valid for kind"},
		{Scenario{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 1 << 16, Op: "both", List: true}, "no DMA-list variant"},
		{Scenario{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 1 << 16, Op: "both", AddrSeeds: []int64{1, 2}}, "one per SPE"},
		{Scenario{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 1 << 16, Op: "both", Ring: 2}, "qcd knob"},
		{Scenario{Kind: "qcd", SPEs: 1, Chunk: 4096, Volume: 1 << 20}, "at least 2 SPEs"},
		{Scenario{Kind: "qcd", SPEs: 4, Chunk: 4096, Volume: 1 << 20, Ring: 4}, "ring step"},
		{Scenario{Kind: "qcd", SPEs: 8, Chunk: 8, Volume: 1 << 20}, "element envelope"},
		{Scenario{Kind: "md", SPEs: 9, Chunk: 2048, Volume: 1 << 19}, "out of range"},
		{Scenario{Kind: "stream", SPEs: 8, Chunk: 16384, Volume: 1 << 20, Op: "get"}, "not valid for kind"},
		{Scenario{Kind: "pattern", SPEs: 2, Chunk: 256}, "explicit phase program"},
		{Scenario{Kind: "pattern", SPEs: 2, Chunk: 256, Op: "get", Pattern: &Pattern{
			Phases: []Phase{{Access: "seq", Op: "get", Bytes: 4096}}, Region: 4096,
		}}, "from the phases"},
		{Scenario{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{{Access: "warp", Op: "get", Bytes: 4096}}, Region: 4096,
		}}, "unknown access"},
		{Scenario{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{{Access: "seq", Op: "scan", Bytes: 4096}}, Region: 4096,
		}}, "want get, put or both"},
		{Scenario{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{{Access: "seq", Op: "get", Bytes: 100}}, Region: 4096,
		}}, "whole number"},
		{Scenario{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{{Access: "stride", Op: "get", Bytes: 4096, Stride: 100}}, Region: 4096,
		}}, "stride"},
		{Scenario{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{{Access: "compute"}},
		}}, "positive cycles"},
		{Scenario{Kind: "pattern", SPEs: 1, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{{Access: "ring", Bytes: 512}},
		}}, "at least 2 SPEs"},
		{Scenario{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{{Access: "seq", Op: "get", Bytes: 4096}}, Region: 100,
		}}, "region"},
		{Scenario{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{}}, "phases"},
		// Workload-library knobs must not leak into the canonical kinds.
		{Scenario{Kind: "pair", Chunk: 4096, Volume: 1 << 20, Ring: 1}, "workload-library knob"},
		{Scenario{Kind: "mem", SPEs: 4, Chunk: 4096, Volume: 1 << 20, Op: "get", AddrSeeds: []int64{1, 2, 3, 4}}, "workload-library knob"},
		{Scenario{Kind: "wedge", SPEs: 4, Pattern: &Pattern{}}, "kind \"pattern\""},
	}
	for _, tc := range bad {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%+v: expected error containing %q, got nil", tc.sc, tc.want)
			continue
		}
		if !errors.Is(err, ErrBadScenario) {
			t.Errorf("%+v: error %v does not wrap ErrBadScenario", tc.sc, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %q does not mention %q", tc.sc, err, tc.want)
		}
	}
}

// TestWorkloadDefaultOps pins the per-kind defaulting the sweep layers
// rely on: canonical kinds keep the historical "get", workload presets
// get their own leading op, explicit patterns stay op-free.
func TestWorkloadDefaultOps(t *testing.T) {
	for _, tc := range []struct{ kind, want string }{
		{"mem", "get"}, {"cycle", "get"}, {"wedge", "get"},
		{"gups", "both"}, {"qcd", ""}, {"md", ""}, {"stream", "triad"}, {"pattern", ""},
	} {
		if got := (Scenario{Kind: tc.kind}).WithDefaultOp().Op; got != tc.want {
			t.Errorf("%s: default op %q, want %q", tc.kind, got, tc.want)
		}
	}
	if got := (Scenario{Kind: "stream", Op: "copy"}).WithDefaultOp().Op; got != "copy" {
		t.Errorf("explicit op overwritten to %q", got)
	}
}

// TestWorkloadInstallRuns: every workload-library kind installs, runs to
// completion, moves traffic, and accounts a plausible byte total.
func TestWorkloadInstallRuns(t *testing.T) {
	for _, sc := range []Scenario{
		{Kind: "gups", SPEs: 4, Chunk: 64, Volume: 16 << 10, Op: "both"},
		{Kind: "gups", SPEs: 2, Chunk: 8, Volume: 1 << 10, Op: "get"},
		{Kind: "qcd", SPEs: 4, Chunk: 1024, Volume: 64 << 10},
		{Kind: "qcd", SPEs: 4, Chunk: 1024, Volume: 64 << 10, Ring: 2},
		{Kind: "md", SPEs: 2, Chunk: 512, Volume: 32 << 10},
		{Kind: "stream", SPEs: 2, Chunk: 4096, Volume: 64 << 10, Op: "copy"},
		{Kind: "stream", SPEs: 2, Chunk: 4096, Volume: 64 << 10, Op: "triad"},
		{Kind: "pattern", SPEs: 2, Chunk: 256, Pattern: &Pattern{
			Phases: []Phase{
				{Access: "seq", Op: "get", Bytes: 4096, Async: true},
				{Access: "stride", Op: "put", Bytes: 4096, Stride: 1024},
				{Access: "ring", Bytes: 512},
				{Access: "compute", Cycles: 1000},
				{Access: "rand", Op: "both", Bytes: 2048},
			},
			Reps: 2, Region: 64 << 10,
		}},
	} {
		sys := New(DefaultConfig())
		total, err := sc.Install(sys)
		if err != nil {
			t.Fatalf("%s/%s: %v", sc.Kind, sc.Op, err)
		}
		if want := sc.pattern().LaneBytes() * int64(sc.SPEs); total != want {
			t.Fatalf("%s/%s: accounted %d bytes, want %d", sc.Kind, sc.Op, total, want)
		}
		if err := sys.RunChecked(200_000_000); err != nil {
			t.Fatalf("%s/%s: %v", sc.Kind, sc.Op, err)
		}
		if st := sys.Bus.Stats(); st.Transfers == 0 || st.Bytes == 0 {
			t.Fatalf("%s/%s: no EIB traffic (stats %+v)", sc.Kind, sc.Op, st)
		}
	}
}

// TestStreamOpTraffic pins the STREAM byte-counting convention: copy and
// scale move two arrays, add and triad three.
func TestStreamOpTraffic(t *testing.T) {
	v := int64(64 << 10)
	for op, arrays := range map[string]int64{"copy": 2, "scale": 2, "add": 3, "triad": 3} {
		sc := Scenario{Kind: "stream", SPEs: 1, Chunk: 4096, Volume: v, Op: op}
		if got := sc.pattern().LaneBytes(); got != arrays*v {
			t.Errorf("%s: lane bytes %d, want %d arrays x %d", op, got, arrays, v)
		}
	}
}

// TestGUPSAddrSeedsChangeStreams: distinct address seeds must actually
// produce distinct address streams (different bank traffic mixes), or
// the seed-permutation metamorphic invariant would be vacuous.
func TestGUPSAddrSeedsChangeStreams(t *testing.T) {
	run := func(seeds []int64) int64 {
		sys := New(DefaultConfig())
		sc := Scenario{Kind: "gups", SPEs: 2, Chunk: 64, Volume: 32 << 10, Op: "get", AddrSeeds: seeds}
		if _, err := sc.Install(sys); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunChecked(0); err != nil {
			t.Fatal(err)
		}
		now := int64(sys.Eng.Now())
		sys.Release()
		return now
	}
	a := run([]int64{1, 2})
	b := run([]int64{1, 2})
	c := run([]int64{3, 4})
	if a != b {
		t.Fatalf("same seeds, different cycle counts: %d vs %d", a, b)
	}
	if a == c {
		t.Fatalf("different seeds produced identical cycle counts %d; streams look seed-independent", a)
	}
}
