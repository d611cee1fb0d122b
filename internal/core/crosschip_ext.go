package core

// Cross-chip extension: the paper's §5 closes with a warning — on a
// dual-Cell blade, SPEs of one job "could be allocated in different
// chips, and they would have to communicate through the IO, limited to
// 7 [GB/s]". This experiment quantifies it: the same active/passive SPE
// pair workload, with the partner on the local chip versus on the second
// chip behind the IOIF.

import "cellbe/internal/cell"

// CrossChip measures pair bandwidth (simultaneous GET+PUT, delayed sync)
// against an on-chip partner and a second-chip partner, across element
// sizes.
func CrossChip(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "cross-chip",
		Title:  "Extension (§5 warning): SPE pair bandwidth, on-chip vs across the IOIF",
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	return res.withCurves(p.Curves([]string{"on-chip partner", "cross-chip partner"},
		SweepSpec{Scenario: "pair", Chunks: ChunkSizes},
		SweepSpec{Scenario: "pair", Chunks: ChunkSizes, figure: cell.PairFigure{Remote: true}}))
}
