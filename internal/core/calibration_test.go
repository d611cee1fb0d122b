package core

// Calibration tests: these pin the simulator to the paper's headline
// numbers (within tolerance). They are the ground truth for the model
// constants in the component configs — if one fails after a model change,
// the reproduction has drifted.

import (
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/stats"
)

// sweepGBps runs one-chunk spec through Params.Sweep at volume bytes per
// SPE, over the first runs layout seeds of DefaultParams unless spec pins
// its seeds, and returns the bandwidth of each seed.
func sweepGBps(t *testing.T, runs int, volume int64, spec SweepSpec) []float64 {
	t.Helper()
	p := DefaultParams()
	p.Runs = runs
	p.BytesPerSPE = volume
	results, err := p.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.GBps
	}
	return out
}

func mean(xs []float64) float64 { return stats.Summarize(xs).Mean }

// pairBandwidth measures one active SPE doing GET+PUT with a passive
// partner, as in §4.2.3, on the identity layout.
func pairBandwidth(t *testing.T, chunk int, syncEvery int) float64 {
	t.Helper()
	return sweepGBps(t, 1, 2<<20, SweepSpec{Scenario: "pair", Chunks: []int{chunk}, Seeds: []int64{0},
		figure: cell.PairFigure{SyncEvery: syncEvery}})[0]
}

func TestCalibrationPairPeak(t *testing.T) {
	// §4.2.3: a single SPE pair with delayed sync reaches almost the
	// 33.6 GB/s peak for elements of 1024 bytes and above.
	for _, chunk := range []int{1024, 4096, 16384} {
		got := pairBandwidth(t, chunk, 0)
		if got < 29 || got > 34 {
			t.Errorf("pair %dB: %.2f GB/s, want ~33.6 (>=29)", chunk, got)
		}
	}
}

func TestCalibrationPairSmallChunksDegrade(t *testing.T) {
	// §4.2.3: below 1024 bytes DMA-elem degrades significantly.
	small := pairBandwidth(t, 128, 0)
	big := pairBandwidth(t, 4096, 0)
	if small > big/2 {
		t.Errorf("128B pair %.2f GB/s vs 4KB %.2f: want < half", small, big)
	}
}

func TestCalibrationSyncEveryRequestHurts(t *testing.T) {
	// Figure 10: synchronizing after every request is much slower than
	// delaying sync, especially for 1 KB - 8 KB elements.
	delayed := pairBandwidth(t, 2048, 0)
	eager := pairBandwidth(t, 2048, 1)
	if eager > delayed*0.75 {
		t.Errorf("sync-every-1 %.2f GB/s vs delayed %.2f: want significant drop", eager, delayed)
	}
}

// memBandwidth measures n SPEs streaming against main memory (Figure 8)
// on the identity layout.
func memBandwidth(t *testing.T, n int, chunk int, op DMAOp) float64 {
	t.Helper()
	return sweepGBps(t, 1, 2<<20, SweepSpec{Scenario: "mem", SPEs: n, Op: op.scenarioOp(),
		Chunks: []int{chunk}, Seeds: []int64{0}})[0]
}

func TestCalibrationSingleSPEMemory(t *testing.T) {
	// Figure 8: one SPE sustains only ~10 GB/s regardless of operation
	// (60% of the 16.8 GB/s MIC peak).
	for _, op := range []DMAOp{DMAGet, DMAPut, DMACopy} {
		got := memBandwidth(t, 1, 16384, op)
		if got < 8 || got > 12.5 {
			t.Errorf("1 SPE %v: %.2f GB/s, want ~10", op, got)
		}
	}
}

func TestCalibrationTwoSPEsDoubleMemory(t *testing.T) {
	// Figure 8: two SPEs reach ~20 GB/s, exceeding the single-bank
	// 16.8 GB/s because both banks are used.
	got := memBandwidth(t, 2, 16384, DMAGet)
	if got < 17 || got > 23 {
		t.Errorf("2 SPEs GET: %.2f GB/s, want ~20", got)
	}
}

func TestCalibrationEightSPEsDropSlightly(t *testing.T) {
	four := memBandwidth(t, 4, 16384, DMAGet)
	eight := memBandwidth(t, 8, 16384, DMAGet)
	if eight > four {
		t.Errorf("8 SPEs (%.2f) should not beat 4 SPEs (%.2f): EIB saturation", eight, four)
	}
	if eight < four*0.6 {
		t.Errorf("8 SPEs (%.2f) dropped too far below 4 SPEs (%.2f)", eight, four)
	}
}

func TestCalibrationCopyTops23(t *testing.T) {
	got := memBandwidth(t, 4, 16384, DMACopy)
	if got < 19 || got > 25 {
		t.Errorf("4 SPEs copy: %.2f GB/s, want ~23", got)
	}
}

// couplesBandwidth measures nSPEs in couples at 1 MiB per SPE, one
// sample per layout run.
func couplesBandwidth(t *testing.T, runs, nSPEs, chunk int, list bool) []float64 {
	t.Helper()
	return sweepGBps(t, runs, 1<<20, SweepSpec{Scenario: "couples", SPEs: nSPEs, List: list, Chunks: []int{chunk}})
}

func TestCalibrationCouplesScaling(t *testing.T) {
	// Figure 12: 1 and 2 couples reach (near) peak; 4 couples average
	// around 95 GB/s (70% of the 134.4 peak).
	if got := couplesBandwidth(t, 1, 2, 16384, false)[0]; got < 30 {
		t.Errorf("1 couple: %.1f GB/s, want ~33.6", got)
	}
	if got := couplesBandwidth(t, 1, 4, 16384, false)[0]; got < 60 {
		t.Errorf("2 couples: %.1f GB/s, want ~67", got)
	}
	if avg := mean(couplesBandwidth(t, 8, 8, 16384, false)); avg < 80 || avg > 110 {
		t.Errorf("4 couples avg: %.1f GB/s, want ~95", avg)
	}
}

func TestCalibrationCouplesLayoutSpread(t *testing.T) {
	// Figure 13: physical placement of the SPEs spreads min/max widely.
	if s := stats.Summarize(couplesBandwidth(t, 10, 8, 16384, false)); s.Spread() < 15 {
		t.Errorf("4-couple layout spread %.1f GB/s, want a wide min/max gap", s.Spread())
	}
}

func TestCalibrationListFlatAcrossSizes(t *testing.T) {
	// Figure 12(b): DMA-list bandwidth is constant across element sizes,
	// even at 128 bytes where DMA-elem collapses.
	small := couplesBandwidth(t, 1, 2, 128, true)[0]
	big := couplesBandwidth(t, 1, 2, 16384, true)[0]
	if small < big*0.9 {
		t.Errorf("DMA-list 128B %.1f vs 16KB %.1f: want flat", small, big)
	}
	elemSmall := couplesBandwidth(t, 1, 2, 128, false)[0]
	if elemSmall > small/2 {
		t.Errorf("DMA-elem 128B %.1f should be far below DMA-list %.1f", elemSmall, small)
	}
}

// cycleBandwidth measures a cycle of nSPEs at 16 KB elements and 1 MiB
// per SPE, one sample per layout run.
func cycleBandwidth(t *testing.T, runs, nSPEs int) []float64 {
	t.Helper()
	return sweepGBps(t, runs, 1<<20, SweepSpec{Scenario: "cycle", SPEs: nSPEs, Chunks: []int{16384}})
}

func TestCalibrationCycleSaturation(t *testing.T) {
	// Figure 15: a 2-SPE cycle reaches the 33.6 peak; 4 SPEs get ~50 of
	// 67.2; 8 SPEs ~70 of 134.4 — saturating the EIB is counterproductive
	// (lower than couples with half the active DMAs).
	if got := cycleBandwidth(t, 1, 2)[0]; got < 31 {
		t.Errorf("2-SPE cycle: %.1f GB/s, want ~33.6", got)
	}
	const runs = 8
	avg4, avg8 := mean(cycleBandwidth(t, runs, 4)), mean(cycleBandwidth(t, runs, 8))
	if avg4 < 42 || avg4 > 60 {
		t.Errorf("4-SPE cycle avg: %.1f GB/s, want ~50", avg4)
	}
	if avg8 < 58 || avg8 > 80 {
		t.Errorf("8-SPE cycle avg: %.1f GB/s, want ~70", avg8)
	}
	// And the cycle (all active) must underperform couples (half active)
	// at 8 SPEs.
	if couples := mean(couplesBandwidth(t, runs, 8, 16384, false)); avg8 >= couples {
		t.Errorf("8-SPE cycle %.1f must be below 8-SPE couples %.1f", avg8, couples)
	}
}

func TestCalibrationStreamingSplitWins(t *testing.T) {
	// §1/§5: two 4-SPE streams beat one 8-SPE stream because two SPEs
	// read memory concurrently.
	p := DefaultParams()
	p.BytesPerSPE = 1 << 20
	one := measureOnce(t, p, func(sys *cell.System) func() float64 { return p.streaming(sys, 1) })
	two := measureOnce(t, p, func(sys *cell.System) func() float64 { return p.streaming(sys, 2) })
	if two < one*1.4 {
		t.Errorf("2x4 streams %.1f GB/s vs 1x8 %.1f: want a clear win", two, one)
	}
}
