package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"cellbe/internal/sim"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(TrackPPE, KindFill, 0, 10, 1, 2, 3, 4)
	tr.Counter(TrackPPEMissQ, 5, 7)
	tr.SetClock(3.2)
	tr.SetTrackName(TrackPPE, "PPE")
	if tr.Enabled(KindFill) {
		t.Fatal("nil tracer reported Enabled")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer retained state")
	}
	var sb strings.Builder
	if err := tr.WritePerfetto(&sb); err != nil {
		t.Fatalf("nil WritePerfetto: %v", err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("nil tracer export is not valid JSON:\n%s", sb.String())
	}
}

func TestRingBufferKeepsMostRecent(t *testing.T) {
	tr := New(4, MaskAll)
	for i := 0; i < 10; i++ {
		tr.Emit(TrackPPE, KindFill, sim.Time(i), sim.Time(i+1), int64(i), 0, 0, 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest-first most-recent window)", i, ev.A, want)
		}
	}
}

func TestMaskFilters(t *testing.T) {
	m, err := ParseFilter("dma,seg")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(16, m)
	tr.Emit(MFCTrack(0), KindDMA, 0, 5, 128, 1, 0, 0)
	tr.Emit(RampTrack(3), KindTransfer, 0, 5, 128, 0, 4, 0)
	tr.Emit(SegTrack(1, 2), KindSegment, 0, 5, 128, 3, 4, 0)
	if tr.Len() != 2 {
		t.Fatalf("Len() = %d, want 2 (transfer filtered out)", tr.Len())
	}
	if !tr.Enabled(KindDMA) || tr.Enabled(KindTransfer) {
		t.Fatal("Enabled() disagrees with filter mask")
	}
	if _, err := ParseFilter("dma,bogus"); err == nil {
		t.Fatal("ParseFilter accepted unknown category")
	}
	if all, err := ParseFilter(""); err != nil || all != MaskAll {
		t.Fatalf("ParseFilter(\"\") = %v, %v; want MaskAll, nil", all, err)
	}
}

func TestTrackEncodingDistinct(t *testing.T) {
	seen := map[Track]string{}
	check := func(tr Track, name string) {
		if prev, ok := seen[tr]; ok {
			t.Fatalf("track collision: %s and %s encode to %d", prev, name, tr)
		}
		seen[tr] = name
	}
	check(TrackPPE, "ppe")
	check(TrackPPEMissQ, "missq")
	for i := 0; i < 8; i++ {
		check(MFCTrack(i), "mfc")
		check(TagTrack(i), "tag")
	}
	for r := 0; r < 12; r++ {
		check(RampTrack(r), "ramp")
	}
	for ring := 0; ring < 4; ring++ {
		for seg := 0; seg < 12; seg++ {
			check(SegTrack(ring, seg), "seg")
		}
	}
	check(BankTrack(0), "bank0")
	check(BankTrack(1), "bank1")
}

// TestPerfettoLaneAssignment checks that overlapping spans on one track
// are fanned out to distinct tids, non-overlapping spans reuse lane 0, and
// the output is valid JSON.
func TestPerfettoLaneAssignment(t *testing.T) {
	tr := New(16, MaskAll)
	tr.SetClock(3.2)
	// Two overlapping DMA spans, then one after both: expect 2 lanes.
	tr.Emit(MFCTrack(0), KindDMA, 0, 100, 1, 0, 0, 0)
	tr.Emit(MFCTrack(0), KindDMA, 50, 150, 2, 0, 0, 0)
	tr.Emit(MFCTrack(0), KindDMA, 200, 300, 3, 0, 0, 0)
	var sb strings.Builder
	if err := tr.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !json.Valid([]byte(out)) {
		t.Fatalf("invalid JSON:\n%s", out)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Bytes int64 `json:"bytes"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	tidOf := map[int64]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tidOf[ev.Args.Bytes] = ev.Tid
		}
	}
	if tidOf[1] == tidOf[2] {
		t.Fatalf("overlapping spans share tid %d", tidOf[1])
	}
	if tidOf[3] != tidOf[1] {
		t.Fatalf("non-overlapping span got tid %d, want reuse of lane-0 tid %d", tidOf[3], tidOf[1])
	}
}

func TestSamplerRatesAndGauges(t *testing.T) {
	eng := sim.NewEngine()
	var bytes int64
	depth := 0.0
	s := NewSampler(eng, 100)
	s.Rate("GBps", 3.2/100, func() float64 { return float64(bytes) })
	s.Gauge("depth", func() float64 { return depth })
	// Work: +1000 bytes at cycles 50, 150, 250; depth toggles.
	for i := 0; i < 3; i++ {
		at := sim.Time(50 + 100*i)
		eng.At(at, func() { bytes += 1000; depth = float64(at) })
	}
	s.Start()
	eng.Run()
	ts := s.Timeseries()
	if want := []string{"cycle", "GBps", "depth"}; len(ts.Columns) != 3 ||
		ts.Columns[0] != want[0] || ts.Columns[1] != want[1] || ts.Columns[2] != want[2] {
		t.Fatalf("Columns = %v, want %v", ts.Columns, want)
	}
	// Last real event at 250; samples at 100 and 200 fire, 300 does not.
	if len(ts.Rows) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(ts.Rows), ts.Rows)
	}
	for i, row := range ts.Rows {
		if row[0] != float64(100*(i+1)) {
			t.Fatalf("row %d sampled at cycle %v, want %d", i, row[0], 100*(i+1))
		}
		if want := 1000 * 3.2 / 100; row[1] != want {
			t.Fatalf("row %d rate = %v, want %v", i, row[1], want)
		}
	}
	if got := ts.Column("depth"); got[0] != 50 || got[1] != 150 {
		t.Fatalf("depth column = %v, want [50 150]", got)
	}
	if ts.Column("nope") != nil {
		t.Fatal("Column on missing name should return nil")
	}
}

// TestSamplerEndsAtLastEvent pins that an armed sampler never extends
// the run: its ticks are daemon events, so the engine still stops at the
// last real event and no row is taken past it.
func TestSamplerEndsAtLastEvent(t *testing.T) {
	eng := sim.NewEngine()
	var bytes int64
	// A process that moves 100 bytes every 10 cycles, 10 times: last
	// real event at cycle 100.
	step := 0
	var proc func()
	proc = func() {
		bytes += 100
		step++
		if step < 10 {
			eng.At(eng.Now()+10, proc)
		}
	}
	eng.At(10, proc)
	s := NewSampler(eng, 25)
	s.Gauge("bytes", func() float64 { return float64(bytes) })
	s.Start()
	eng.Run()
	if got := eng.Now(); got != 100 {
		t.Fatalf("engine ended at %d, want 100 (sampler extended the run)", got)
	}
	rows := s.Timeseries().Rows
	if len(rows) < 2 {
		t.Fatalf("got %d rows, want periodic samples", len(rows))
	}
	for i, row := range rows {
		if want := float64(25 * (i + 1)); row[0] != want {
			t.Errorf("row %d at cycle %v, want %v", i, row[0], want)
		}
		if i > 0 && row[1] < rows[i-1][1] {
			t.Errorf("row %d bytes decreased", i)
		}
	}
	if last := rows[len(rows)-1]; last[0] > 100 {
		t.Errorf("row past the last real event at cycle %v", last[0])
	}
}

// TestNewSamplerBadInterval pins the contract that a non-positive
// sampling interval panics instead of silently spinning.
func TestNewSamplerBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSampler(eng, 0) did not panic")
		}
	}()
	NewSampler(sim.NewEngine(), 0)
}

// TestEmitSteadyStateAllocFree checks the ring buffer stops allocating
// once full — the property that lets the EIB hot path emit per-transfer
// events without disturbing its allocation budget more than the buffer's
// one-time cost.
func TestEmitSteadyStateAllocFree(t *testing.T) {
	tr := New(64, MaskAll)
	for i := 0; i < 64; i++ {
		tr.Emit(RampTrack(0), KindTransfer, sim.Time(i), sim.Time(i+1), 0, 0, 0, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Emit(RampTrack(0), KindTransfer, 100, 200, 128, 1, 2, 3)
	})
	if allocs > 0 {
		t.Fatalf("full-buffer Emit allocates %.1f per call, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(100, func() {
		nilTr.Emit(RampTrack(0), KindTransfer, 100, 200, 128, 1, 2, 3)
	})
	if allocs > 0 {
		t.Fatalf("nil Emit allocates %.1f per call, want 0", allocs)
	}
}
