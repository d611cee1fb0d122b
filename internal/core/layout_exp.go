package core

import (
	"fmt"

	"cellbe/internal/cell"
	"cellbe/internal/stats"
	"cellbe/internal/trace"
)

// LayoutTimeline renders the mechanism behind the paper's layout variance
// (Figures 13 and 16): it probes Params.Runs layouts of the 8-SPE cycle
// scenario, picks the best and the worst by sustained bandwidth, then
// reruns both with the metrics sampler attached and reports their EIB
// bandwidth and wait-per-transfer *timelines* on a shared cycle axis. A
// lucky layout holds a flat high-bandwidth line; an unlucky one shows the
// sustained ring-segment conflicts — visible here as elevated per-transfer
// wait — that end-of-run aggregates can only hint at.
func LayoutTimeline(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	const chunk = 4096
	spec := SweepSpec{Scenario: "cycle", SPEs: cell.NumSPEs, Op: "get", Chunks: []int{chunk}}

	// Probe pass: aggregate bandwidth per layout seed, no tracing.
	probes, err := p.Sweep(spec)
	if err != nil {
		return nil, err
	}
	best, worst := probes[0], probes[0]
	for _, r := range probes[1:] {
		if r.GBps > best.GBps {
			best = r
		}
		if r.GBps < worst.GBps {
			worst = r
		}
	}

	// One shared sampling interval, sized off the slower run so both
	// timelines get comparable resolution on the same axis (~64 samples).
	interval := max(best.Cycles, worst.Cycles) / 64
	if interval < 1000 {
		interval = 1000
	}

	// Each rerun is a one-point sweep whose Instrument hook arms the
	// sampler on the installed System, before its first event, and keeps
	// the System for the sampler to read; the rerun releases it after.
	rerun := func(seed int64) (*trace.Timeseries, error) {
		var sampler *trace.Sampler
		var kept *cell.System
		one := spec
		one.Seeds = []int64{seed}
		one.Instrument = func(_ int, _ int64, sys *cell.System) bool {
			sampler, kept = sys.StartMetrics(interval), sys
			return true
		}
		_, err := p.Sweep(one)
		if kept != nil {
			defer kept.Release()
		}
		if err != nil {
			return nil, err
		}
		return sampler.Timeseries(), nil
	}
	bestTS, err := rerun(best.Seed)
	if err != nil {
		return nil, err
	}
	worstTS, err := rerun(worst.Seed)
	if err != nil {
		return nil, err
	}

	curves := func(label string, ts *trace.Timeseries) []Curve {
		cyc := ts.Column("cycle")
		gbps := ts.Column("eib_GBps")
		waits := ts.Column("eib_wait_cyc")
		xfers := ts.Column("eib_transfers")
		bw := Curve{Label: label + " GB/s"}
		wp := Curve{Label: label + " wait/xfer"}
		for i := range cyc {
			x := int(cyc[i] / 1000)
			bw.Points = append(bw.Points, Point{X: x, Summary: stats.Summarize([]float64{gbps[i]})})
			perXfer := 0.0
			if xfers[i] > 0 {
				perXfer = waits[i] / xfers[i]
			}
			wp.Points = append(wp.Points, Point{X: x, Summary: stats.Summarize([]float64{perXfer})})
		}
		return []Curve{bw, wp}
	}

	res := &Result{
		Name: "layout-timeline",
		Title: fmt.Sprintf("Cycle of 8 SPEs, %dB chunks: best (seed %d, %.1f GB/s) vs worst (seed %d, %.1f GB/s) layout timeline",
			chunk, best.Seed, best.GBps, worst.Seed, worst.GBps),
		XLabel: "kilocycle",
		YLabel: "GB/s | wait cycles per transfer",
	}
	res.Curves = append(res.Curves, curves("best-layout", bestTS)...)
	res.Curves = append(res.Curves, curves("worst-layout", worstTS)...)
	return res, nil
}
