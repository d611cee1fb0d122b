package eib

import (
	"testing"
	"testing/quick"

	"cellbe/internal/sim"
)

func newEIB() (*sim.Engine, *EIB) {
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig())
}

func TestHops(t *testing.T) {
	cases := []struct {
		src, dst RampID
		dir      Direction
		want     int
	}{
		{RampPPE, RampSPE1, Clockwise, 1},
		{RampSPE1, RampPPE, Counterclockwise, 1},
		{RampPPE, RampMIC, Counterclockwise, 1},
		{RampPPE, RampMIC, Clockwise, 11},
		{RampSPE0, RampSPE1, Clockwise, 3},
		{RampSPE0, RampSPE1, Counterclockwise, 9},
		{RampPPE, RampIOIF0, Clockwise, 6},
		{RampPPE, RampIOIF0, Counterclockwise, 6},
	}
	for _, c := range cases {
		if got := Hops(c.src, c.dst, c.dir); got != c.want {
			t.Errorf("Hops(%v,%v,%v) = %d, want %d", c.src, c.dst, c.dir, got, c.want)
		}
	}
}

func TestPathSegments(t *testing.T) {
	segs := pathSegments(RampSPE0, RampSPE1, Clockwise) // 10 -> 1
	want := []int{10, 11, 0}
	if len(segs) != len(want) {
		t.Fatalf("segments %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segments %v, want %v", segs, want)
		}
	}
	segs = pathSegments(RampSPE1, RampSPE0, Counterclockwise) // 1 -> 10
	want = []int{1, 0, 11}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("ccw segments %v, want %v", segs, want)
		}
	}
}

func TestSingleTransferTiming(t *testing.T) {
	eng, bus := newEIB()
	var end sim.Time
	// 128 bytes = 8 beats = 16 CPU cycles on the segments, plus 1 hop
	// (2 cycles) of pipeline drain: PPE -> SPE1 is 1 hop clockwise.
	bus.Transfer(RampPPE, RampSPE1, 128, 0, sim.CalleeFunc(func(e sim.Time) { end = e }))
	eng.Run()
	if end != 16+2 {
		t.Fatalf("end = %d, want 18", end)
	}
}

func TestTransferEarliest(t *testing.T) {
	eng, bus := newEIB()
	var end sim.Time
	bus.Transfer(RampPPE, RampSPE1, 16, 100, sim.CalleeFunc(func(e sim.Time) { end = e }))
	eng.Run()
	if end != 100+2+2 {
		t.Fatalf("end = %d, want 104", end)
	}
}

func TestOppositeDirectionsDontConflict(t *testing.T) {
	eng, bus := newEIB()
	var e1, e2 sim.Time
	// SPE0(10) -> SPE1(1): clockwise. SPE1 -> SPE0: counterclockwise.
	bus.Transfer(RampSPE0, RampSPE1, 128, 0, sim.CalleeFunc(func(e sim.Time) { e1 = e }))
	bus.Transfer(RampSPE1, RampSPE0, 128, 0, sim.CalleeFunc(func(e sim.Time) { e2 = e }))
	eng.Run()
	want := sim.Time(16 + 3*2)
	if e1 != want || e2 != want {
		t.Fatalf("ends %d,%d, want both %d (no conflict)", e1, e2, want)
	}
}

func TestTwoRingsPerDirection(t *testing.T) {
	eng, bus := newEIB()
	var ends [2]sim.Time
	// Two same-direction transfers sharing segment 11 but with distinct
	// ports ride the two clockwise rings concurrently.
	bus.Transfer(RampMIC, RampSPE1, 128, 0, sim.CalleeFunc(func(e sim.Time) { ends[0] = e })) // segs 11,0
	bus.Transfer(RampSPE0, RampPPE, 128, 0, sim.CalleeFunc(func(e sim.Time) { ends[1] = e })) // segs 10,11
	eng.Run()
	if ends[0] != 16+2*2 || ends[1] != 16+2*2 {
		t.Fatalf("ends %v, want 20 each (concurrent on two rings)", ends)
	}
}

func TestSameSourceSerializesOnOutPort(t *testing.T) {
	eng, bus := newEIB()
	var ends [3]sim.Time
	// Three transfers from the same ramp: even with two rings available,
	// the single 16B/bus-cycle out port serializes them.
	for i := range ends {
		i := i
		bus.Transfer(RampPPE, RampSPE1, 128, 0, sim.CalleeFunc(func(e sim.Time) { ends[i] = e }))
	}
	eng.Run()
	want := [3]sim.Time{18, 34, 50}
	if ends != want {
		t.Fatalf("ends %v, want %v", ends, want)
	}
}

func TestSourcePortSerializes(t *testing.T) {
	eng, bus := newEIB()
	var e1, e2 sim.Time
	// Same source, different destinations and even different directions:
	// the single 16B/bus-cycle out port serializes them.
	bus.Transfer(RampPPE, RampSPE1, 128, 0, sim.CalleeFunc(func(e sim.Time) { e1 = e }))
	bus.Transfer(RampPPE, RampMIC, 128, 0, sim.CalleeFunc(func(e sim.Time) { e2 = e }))
	eng.Run()
	if e1 != 18 {
		t.Fatalf("first end %d, want 18", e1)
	}
	if e2 != 16+16+2 {
		t.Fatalf("second end %d, want 34 (serialized on out port)", e2)
	}
}

func TestDestPortSerializes(t *testing.T) {
	eng, bus := newEIB()
	var e1, e2 sim.Time
	bus.Transfer(RampSPE1, RampPPE, 128, 0, sim.CalleeFunc(func(e sim.Time) { e1 = e }))
	bus.Transfer(RampMIC, RampPPE, 128, 0, sim.CalleeFunc(func(e sim.Time) { e2 = e }))
	eng.Run()
	if e1 != 18 {
		t.Fatalf("first end %d, want 18", e1)
	}
	if e2 != 16+16+2 {
		t.Fatalf("second end %d, want 34 (serialized on in port)", e2)
	}
}

func TestSegmentConflictSameDirection(t *testing.T) {
	eng, bus := newEIB()
	var ends [3]sim.Time
	// Three clockwise-only transfers that all cross segment 11, with
	// distinct ports: MIC(11)->SPE1(1), SPE0(10)->PPE(0), SPE2(9)->SPE3(2).
	// Their counterclockwise alternatives are all > 6 hops, so the two
	// clockwise rings carry two of them and the third must wait.
	srcs := []RampID{RampMIC, RampSPE0, RampSPE2}
	dsts := []RampID{RampSPE1, RampPPE, RampSPE3}
	for i := range srcs {
		i := i
		bus.Transfer(srcs[i], dsts[i], 128, 0, sim.CalleeFunc(func(e sim.Time) { ends[i] = e }))
	}
	eng.Run()
	// Two clockwise rings fit two of them; the third is pushed out.
	delayed := 0
	for _, e := range ends {
		if e > 30 {
			delayed++
		}
	}
	if delayed != 1 {
		t.Fatalf("ends %v: want exactly one delayed transfer", ends)
	}
}

func TestHalfRingRule(t *testing.T) {
	eng, bus := newEIB()
	// PPE(0) -> IOIF1(5): 5 hops clockwise only. Check it completes and
	// the counterclockwise rings stay unused.
	done := false
	bus.Transfer(RampPPE, RampIOIF1, 16, 0, sim.CalleeFunc(func(sim.Time) { done = true }))
	eng.Run()
	if !done {
		t.Fatal("transfer did not complete")
	}
	st := bus.Stats()
	if st.PerDirCount[Counterclockwise] != 0 {
		t.Fatal("5-hop clockwise transfer must not use a counterclockwise ring")
	}
	if st.PerDirCount[Clockwise] != 1 {
		t.Fatalf("clockwise count = %d, want 1", st.PerDirCount[Clockwise])
	}
}

func TestLocalTransferBypassesRings(t *testing.T) {
	eng, bus := newEIB()
	var end sim.Time
	bus.Transfer(RampSPE0, RampSPE0, 128, 0, sim.CalleeFunc(func(e sim.Time) { end = e }))
	eng.Run()
	if end != 16 {
		t.Fatalf("local transfer end %d, want 16", end)
	}
	st := bus.Stats()
	if st.BusyCycles[0]+st.BusyCycles[1]+st.BusyCycles[2]+st.BusyCycles[3] != 0 {
		t.Fatal("local transfer must not occupy ring segments")
	}
}

func TestCommandBusThroughput(t *testing.T) {
	eng, bus := newEIB()
	cfg := bus.cfg
	if t0 := bus.Command(0); t0 != cfg.CmdLatency {
		t.Fatalf("first command done at %d, want %d", t0, cfg.CmdLatency)
	}
	// Fractional pacing: with 25 tenths per command, grants land at
	// 0, 2.5, 5.0, 7.5 -> rounded up to 0, 3, 5, 8 cycles.
	wantOffsets := []sim.Time{3, 5, 8}
	for i, w := range wantOffsets {
		if got := bus.Command(0); got != cfg.CmdLatency+w {
			t.Fatalf("command %d done at %d, want %d", i+1, got, cfg.CmdLatency+w)
		}
	}
	// After idle time the cursor catches up to the request time.
	if got := bus.Command(1000); got != 1000+cfg.CmdLatency {
		t.Fatalf("idle command done at %d, want %d", got, 1000+cfg.CmdLatency)
	}
	_ = eng
}

func TestSustainedBandwidthSinglePair(t *testing.T) {
	// Back-to-back 128B transfers SPE0 -> SPE1 must sustain one beat per
	// bus cycle: N*16 cycles of occupancy, i.e. 16.8 GB/s at 2.1 GHz.
	eng, bus := newEIB()
	const n = 1000
	var last sim.Time
	var issue func(i int)
	issue = func(i int) {
		if i == n {
			return
		}
		bus.Transfer(RampSPE0, RampSPE1, 128, 0, sim.CalleeFunc(func(e sim.Time) { last = e }))
		issue(i + 1)
	}
	issue(0)
	eng.Run()
	// n*16 cycles of segment occupancy + 3 hops drain.
	want := sim.Time(n*16 + 6)
	if last != want {
		t.Fatalf("last end = %d, want %d", last, want)
	}
}

func TestStatsAccumulate(t *testing.T) {
	eng, bus := newEIB()
	bus.Transfer(RampPPE, RampSPE1, 128, 0, sim.CalleeFunc(func(sim.Time) {}))
	bus.Transfer(RampPPE, RampSPE1, 64, 0, sim.CalleeFunc(func(sim.Time) {}))
	eng.Run()
	st := bus.Stats()
	if st.Transfers != 2 || st.Bytes != 192 {
		t.Fatalf("stats %+v, want 2 transfers / 192 bytes", st)
	}
	if st.PerRampBytes[RampPPE] != 192 {
		t.Fatalf("per-ramp bytes %d, want 192", st.PerRampBytes[RampPPE])
	}
}

func TestZeroByteTransferPanics(t *testing.T) {
	_, bus := newEIB()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-byte transfer should panic")
		}
	}()
	bus.Transfer(RampPPE, RampSPE1, 0, 0, sim.CalleeFunc(func(sim.Time) {}))
}

// Property: for any src/dst pair, hops clockwise + hops counterclockwise
// equals 12 (or 0 for src==dst), and at least one direction is <= 6.
func TestHopsProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		src := RampID(a % NumRamps)
		dst := RampID(b % NumRamps)
		cw := Hops(src, dst, Clockwise)
		ccw := Hops(src, dst, Counterclockwise)
		if src == dst {
			return cw == 0 && ccw == 0
		}
		return cw+ccw == NumRamps && (cw <= 6 || ccw <= 6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a transfer always completes at or after earliest + pure
// transfer time, and the path length never exceeds half the ring.
func TestTransferLowerBoundProperty(t *testing.T) {
	f := func(a, b uint8, sz uint16, early uint16) bool {
		src := RampID(a % NumRamps)
		dst := RampID(b % NumRamps)
		bytes := int(sz%2048) + 1
		eng, bus := newEIB()
		var end sim.Time
		bus.Transfer(src, dst, bytes, sim.Time(early), sim.CalleeFunc(func(e sim.Time) { end = e }))
		eng.Run()
		beats := sim.Time((bytes + 15) / 16)
		min := sim.Time(early) + beats*2
		return end >= min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
