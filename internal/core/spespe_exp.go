package core

import (
	"fmt"

	"cellbe/internal/cell"
)

// SyncIntervals is the synchronization sweep of Figure 10: wait for the
// tag group after every command, every 2, ... every 32, or only once at
// the end (0).
var SyncIntervals = []int{1, 2, 4, 8, 16, 32, 0}

// SPEPairSync reproduces Figure 10: one active SPE transfers to and from a
// passive SPE's local store with DMA-elem commands, synchronizing after
// every N requests. Delaying synchronization until the end ("all") keeps
// the MFC queue saturated and reaches almost the 33.6 GB/s peak for
// elements of 1 KB and above.
func SPEPairSync(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "spe-pair-sync",
		Title:  "Impact of delayed DMA-elem synchronization in SPE-to-SPE transfers (Figure 10)",
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	var labels []string
	var specs []SweepSpec
	for _, every := range p.syncIntervals() {
		label := "all"
		if every > 0 {
			label = fmt.Sprintf("every %d", every)
		}
		labels = append(labels, label)
		specs = append(specs, SweepSpec{Scenario: "pair", Chunks: p.chunkSizes(),
			figure: cell.PairFigure{SyncEvery: every}})
	}
	return res.withCurves(p.Curves(labels, specs...))
}

// SPEPairDistance measures the bandwidth between logical SPE 0 and every
// other logical SPE (§4.2.3): with a single active pair there are no ring
// conflicts, so the variation stays small regardless of physical distance.
func SPEPairDistance(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "spe-pair-distance",
		Title:  "SPE 0 to each other SPE, DMA-elem, delayed sync (§4.2.3)",
		XLabel: "partner logical SPE",
		YLabel: "GB/s",
	}
	partners := []int{1, 2, 3, 4, 5, 6, 7}
	labels := make([]string, len(partners))
	specs := make([]SweepSpec, len(partners))
	for i, b := range partners {
		labels[i] = fmt.Sprintf("partner %d", b)
		specs[i] = SweepSpec{Scenario: "pair", Chunks: []int{16384}, figure: cell.PairFigure{Partner: b}}
	}
	curves, err := p.Curves(labels, specs...)
	if err != nil {
		return nil, err
	}
	res.Curves = []Curve{pointsAt("16KB elements", partners, curves)}
	return res, nil
}

// SPECouples reproduces Figures 12 and 13: one, two or four couples of
// SPEs, each couple one active SPE doing simultaneous GET+PUT with a
// passive partner. With 4 couples there are four concurrent bidirectional
// flows; physical placement decides how many ring segments collide, which
// is what spreads the min/max across runs.
func SPECouples(p Params, list bool) (*Result, error) {
	return pairFamily(p, "couples", list, "spe-couples", "Couples of SPEs, %s (Figures 12, 13)")
}

// SPECycle reproduces Figures 15 and 16: a ring of 2, 4 or 8 SPEs in which
// every SPE actively GETs from and PUTs to its logical neighbor. With more
// than 4 concurrent flows the four EIB rings saturate and aggregate
// bandwidth falls well below the couples experiment.
func SPECycle(p Params, list bool) (*Result, error) {
	return pairFamily(p, "cycle", list, "spe-cycle", "Cycle of SPEs, all active, %s (Figures 15, 16)")
}

// pairFamily sweeps the couples or cycle scenario over 2, 4 and 8 SPEs,
// one curve per SPE count; title takes the DMA kind.
func pairFamily(p Params, scenario string, list bool, name, title string) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	kind := "DMA-elem"
	if list {
		kind = "DMA-list"
	}
	res := &Result{
		Name:   name,
		Title:  fmt.Sprintf(title, kind),
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	var labels []string
	var specs []SweepSpec
	for _, n := range p.speCounts([]int{2, 4, 8}) {
		labels = append(labels, fmt.Sprintf("%d SPEs", n))
		specs = append(specs, SweepSpec{Scenario: scenario, SPEs: n, List: list, Chunks: p.chunkSizes()})
	}
	return res.withCurves(p.Curves(labels, specs...))
}
