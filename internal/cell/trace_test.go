package cell

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"cellbe/internal/ppe"
	"cellbe/internal/trace"
)

// tracedRun builds a system with a MaskAll tracer attached, installs the
// scenario and runs it to completion, returning the tracer.
func tracedRun(t *testing.T, sc Scenario, layoutSeed int64) *trace.Tracer {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Layout = RandomLayout(layoutSeed)
	sys := New(cfg)
	tr := trace.New(1<<20, trace.MaskAll)
	sys.SetTracer(tr)
	if _, err := sc.Install(sys); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunChecked(0); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPerfettoGolden pins the exporter's byte-exact output for a tiny pair
// scenario. The simulation is deterministic and the exporter sorts tracks
// and lanes explicitly, so any diff here is a real format or scheduling
// change. Regenerate with: UPDATE_GOLDEN=1 go test ./internal/cell -run Golden
func TestPerfettoGolden(t *testing.T) {
	tr := tracedRun(t, Scenario{Kind: "pair", SPEs: 2, Chunk: 4096, Volume: 8192}, 3)
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_pair.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := buf.Bytes()
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) []byte {
			if hi < len(b) {
				return b[lo:hi]
			}
			return b[lo:]
		}
		t.Fatalf("trace output diverges from %s at byte %d:\n got ...%q...\nwant ...%q...\n(regenerate with UPDATE_GOLDEN=1 if the change is intended)",
			golden, i, clip(got), clip(want))
	}
}

// TestDMASpansNestInTagGroups checks the structural invariant that makes
// the trace readable: every per-command DMA span lies inside the lifetime
// of its tag group (first enqueue of the tag to last completion) on the
// same SPE.
func TestDMASpansNestInTagGroups(t *testing.T) {
	tr := tracedRun(t, Scenario{Kind: "cycle", SPEs: 8, Chunk: 4096, Volume: 64 << 10}, 3)

	type tagSpan struct{ start, end int64 }
	// groups[spe][tag] collects every tag-group span of that tag.
	groups := map[trace.Track]map[int64][]tagSpan{}
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KindTag {
			continue
		}
		m := groups[ev.Track]
		if m == nil {
			m = map[int64][]tagSpan{}
			groups[ev.Track] = m
		}
		m[ev.A] = append(m[ev.A], tagSpan{int64(ev.Start), int64(ev.End)})
	}

	dmas, nested := 0, 0
	for spe := 0; spe < NumSPEs; spe++ {
		tagTrack := trace.TagTrack(spe)
		for _, ev := range tr.Events() {
			if ev.Kind != trace.KindDMA || ev.Track != trace.MFCTrack(spe) {
				continue
			}
			dmas++
			for _, ts := range groups[tagTrack][ev.B] {
				if ts.start <= int64(ev.Start) && int64(ev.End) <= ts.end {
					nested++
					break
				}
			}
		}
	}
	if dmas == 0 {
		t.Fatal("cycle run produced no DMA events")
	}
	if nested != dmas {
		t.Fatalf("%d of %d DMA spans are not contained in any same-tag group span", dmas-nested, dmas)
	}
}

// TestSegmentReservationsDontOverlap checks the EIB model's exclusivity
// invariant as observed through the trace: a ring segment carries at most
// one transfer at a time, so per segment track the reservation spans must
// never overlap.
func TestSegmentReservationsDontOverlap(t *testing.T) {
	tr := tracedRun(t, Scenario{Kind: "cycle", SPEs: 8, Chunk: 4096, Volume: 64 << 10}, 3)

	bySeg := map[trace.Track][]trace.Event{}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindSegment {
			bySeg[ev.Track] = append(bySeg[ev.Track], ev)
		}
	}
	if len(bySeg) == 0 {
		t.Fatal("cycle run produced no segment reservations")
	}
	for track, evs := range bySeg {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].End < evs[j].End
		})
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End {
				t.Fatalf("track %v: reservation [%d,%d) overlaps previous [%d,%d)",
					track, evs[i].Start, evs[i].End, evs[i-1].Start, evs[i-1].End)
			}
		}
	}
}

// TestMemScenarioEmitsBankEvents: streaming against main memory must show
// up as busy windows on the XDR bank tracks.
func TestMemScenarioEmitsBankEvents(t *testing.T) {
	tr := tracedRun(t, Scenario{Kind: "mem", SPEs: 2, Chunk: 4096, Volume: 64 << 10, Op: "get"}, 1)
	banks, bytes := 0, int64(0)
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindBank {
			banks++
			bytes += ev.A
		}
	}
	if banks == 0 || bytes == 0 {
		t.Fatalf("mem run produced %d bank events covering %d bytes, want both > 0", banks, bytes)
	}
}

// TestPPEStreamEmitsFills: a PPE streaming load must emit cache-line fill
// spans and miss-queue counter samples.
func TestPPEStreamEmitsFills(t *testing.T) {
	sys := New(DefaultConfig())
	tr := trace.New(1<<16, trace.MaskAll)
	sys.SetTracer(tr)
	base := sys.Alloc(1<<16, 128)
	sys.PPE.Run(0, []ppe.Pass{{Op: ppe.Load, Src: base, Bytes: 1 << 16, Elem: 8}}, nil)
	if err := sys.RunChecked(0); err != nil {
		t.Fatal(err)
	}
	fills, counters := 0, 0
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindFill:
			fills++
			if ev.Track != trace.TrackPPE {
				t.Fatalf("fill event on track %v, want PPE track", ev.Track)
			}
		case trace.KindCounter:
			counters++
		}
	}
	if fills == 0 || counters == 0 {
		t.Fatalf("PPE stream produced %d fills and %d counter samples, want both > 0", fills, counters)
	}
}

// TestStartMetricsLeavesRunUnchanged: arming the metrics sampler is pure
// observation. The sampled run ends on the same cycle with the same event
// count and counter block as the unsampled one, and the timeseries holds
// one row per full interval, the partial last window dropped.
func TestStartMetricsLeavesRunUnchanged(t *testing.T) {
	const every = 10000
	sc := Scenario{Kind: "mem", SPEs: 4, Chunk: 16384, Volume: 262144, Op: "get"}
	run := func(sample bool) (*System, *trace.Sampler) {
		sys := New(DefaultConfig())
		var sa *trace.Sampler
		if sample {
			sa = sys.StartMetrics(every)
		}
		if _, err := sc.Install(sys); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunChecked(0); err != nil {
			t.Fatal(err)
		}
		return sys, sa
	}
	plain, _ := run(false)
	sampled, sa := run(true)
	if got, want := sampled.Eng.Now(), plain.Eng.Now(); got != want {
		t.Fatalf("sampled run ended at cycle %d, unsampled at %d", got, want)
	}
	if got, want := sampled.Eng.Fired(), plain.Eng.Fired(); got != want {
		t.Fatalf("sampled run fired %d events, unsampled %d", got, want)
	}
	if sampled.Perf().Rollup() != plain.Perf().Rollup() {
		t.Fatal("sampling changed the counter rollup")
	}
	if got, want := len(sa.Timeseries().Rows), int(sampled.Eng.Now()/every); got != want {
		t.Fatalf("got %d timeseries rows, want %d (one per full %d-cycle window)", got, want, every)
	}
}

// TestTransferOnlyTracerKeepsLastN: a tracer that records only EIB
// transfers, with capacity n, holds exactly the last n transfers of a
// run, oldest first — what cellsim -dump-transfers prints. The reference
// is the same run traced with room for every transfer.
func TestTransferOnlyTracerKeepsLastN(t *testing.T) {
	sc := Scenario{Kind: "cycle", SPEs: 8, Chunk: 4096, Volume: 64 << 10}
	run := func(capacity int) ([]trace.Event, int64) {
		cfg := DefaultConfig()
		cfg.Layout = RandomLayout(7)
		sys := New(cfg)
		defer sys.Release()
		tr := trace.New(capacity, trace.Mask(1)<<trace.KindTransfer)
		sys.SetTracer(tr)
		if _, err := sc.Install(sys); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunChecked(0); err != nil {
			t.Fatal(err)
		}
		return tr.Events(), sys.Bus.Stats().Transfers
	}
	all, transfers := run(1 << 20)
	if int64(len(all)) != transfers {
		t.Fatalf("tracer holds %d events for %d transfers", len(all), transfers)
	}
	for _, ev := range all {
		if ev.Kind != trace.KindTransfer {
			t.Fatalf("transfer-only tracer recorded a %v event", ev.Kind)
		}
	}
	const n = 100
	last, _ := run(n)
	if !reflect.DeepEqual(last, all[len(all)-n:]) {
		t.Fatalf("capacity-%d tracer does not hold the run's last %d transfers in order", n, n)
	}
}
