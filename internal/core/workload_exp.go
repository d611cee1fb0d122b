package core

// The workload library (README "Scenarios"): the four application
// presets — GUPS random table updates, the QCD halo ring, MD
// gather/scatter and STREAM — run through the pattern interpreter on 8
// SPEs, swept over their element-size envelopes. This is the provenance
// run behind the "Workload library" section of EXPERIMENTS.md: the
// conformance claims re-check the same shapes at quick volumes.

// Workloads measures the scenario presets of the pattern interpreter.
// Each curve is one preset (GUPS at its 8–128 B gather envelope, the
// others at DMA-stream sizes); volumes are scaled per preset so the
// small-element points stay affordable while still reaching steady
// state.
func Workloads(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "workloads",
		Title:  "Workload presets on the pattern interpreter (8 SPEs)",
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	half := p.BytesPerSPE / 2
	return res.withCurves(p.Curves(
		[]string{"gups both", "qcd halo", "md pairs", "stream copy", "stream scale", "stream add", "stream triad"},
		SweepSpec{Scenario: "gups", SPEs: 8, Op: "both", Chunks: []int{8, 16, 32, 64, 128}, Volume: p.BytesPerSPE / 16},
		SweepSpec{Scenario: "qcd", SPEs: 8, Chunks: []int{1024, 4096, 16384}, Volume: half},
		SweepSpec{Scenario: "md", SPEs: 8, Chunks: []int{512, 4096}, Volume: half},
		SweepSpec{Scenario: "stream", SPEs: 8, Op: "copy", Chunks: []int{16384}, Volume: half},
		SweepSpec{Scenario: "stream", SPEs: 8, Op: "scale", Chunks: []int{16384}, Volume: half},
		SweepSpec{Scenario: "stream", SPEs: 8, Op: "add", Chunks: []int{16384}, Volume: half},
		SweepSpec{Scenario: "stream", SPEs: 8, Op: "triad", Chunks: []int{4096, 16384}, Volume: half},
	))
}
