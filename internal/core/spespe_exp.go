package core

import (
	"fmt"

	"cellbe/internal/cell"
	"cellbe/internal/stats"
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
	for _, every := range p.syncIntervals() {
		label := "all"
		if every > 0 {
			label = fmt.Sprintf("every %d", every)
		}
		series := stats.NewSeries(label, p.chunkSizes())
		for _, chunk := range p.chunkSizes() {
			chunk, every := chunk, every
			addRuns(p, series, chunk, func(run int) float64 {
				return runPair(p, run, chunk, cell.PairFigure{SyncEvery: every})
			})
		}
		res.Curves = append(res.Curves, CurveFromSeries(series))
	}
	return res, nil
}

// runPair measures one active/passive SPE pair: SPE0 against the partner
// and sync interval f selects.
func runPair(p Params, run, chunk int, f cell.PairFigure) float64 {
	sc := cell.Scenario{Kind: "pair", Chunk: chunk, Volume: p.BytesPerSPE}
	return runScenario(p.newSystem(run), sc.WithPairFigure(f))
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
	series := stats.NewSeries("16KB elements", partners)
	for _, b := range partners {
		b := b
		addRuns(p, series, b, func(run int) float64 {
			return runPair(p, run, 16384, cell.PairFigure{Partner: b})
		})
	}
	res.Curves = append(res.Curves, CurveFromSeries(series))
	return res, nil
}

// SPECouples reproduces Figures 12 and 13: one, two or four couples of
// SPEs, each couple one active SPE doing simultaneous GET+PUT with a
// passive partner. With 4 couples there are four concurrent bidirectional
// flows; physical placement decides how many ring segments collide, which
// is what spreads the min/max across runs.
func SPECouples(p Params, list bool) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	kind := "DMA-elem"
	if list {
		kind = "DMA-list"
	}
	res := &Result{
		Name:   "spe-couples",
		Title:  fmt.Sprintf("Couples of SPEs, %s (Figures 12, 13)", kind),
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	for _, n := range p.speCounts([]int{2, 4, 8}) {
		series := stats.NewSeries(fmt.Sprintf("%d SPEs", n), p.chunkSizes())
		for _, chunk := range p.chunkSizes() {
			n, chunk := n, chunk
			addRuns(p, series, chunk, func(run int) float64 {
				return runCouples(p, run, n, chunk, list)
			})
		}
		res.Curves = append(res.Curves, CurveFromSeries(series))
	}
	return res, nil
}

func runCouples(p Params, run, nSPEs, chunk int, list bool) float64 {
	return runScenario(p.newSystem(run), cell.Scenario{Kind: "couples", SPEs: nSPEs, Chunk: chunk,
		Volume: p.BytesPerSPE, List: list})
}

// SPECycle reproduces Figures 15 and 16: a ring of 2, 4 or 8 SPEs in which
// every SPE actively GETs from and PUTs to its logical neighbor. With more
// than 4 concurrent flows the four EIB rings saturate and aggregate
// bandwidth falls well below the couples experiment.
func SPECycle(p Params, list bool) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	kind := "DMA-elem"
	if list {
		kind = "DMA-list"
	}
	res := &Result{
		Name:   "spe-cycle",
		Title:  fmt.Sprintf("Cycle of SPEs, all active, %s (Figures 15, 16)", kind),
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	for _, n := range p.speCounts([]int{2, 4, 8}) {
		series := stats.NewSeries(fmt.Sprintf("%d SPEs", n), p.chunkSizes())
		for _, chunk := range p.chunkSizes() {
			n, chunk := n, chunk
			addRuns(p, series, chunk, func(run int) float64 {
				return runCycle(p, run, n, chunk, list)
			})
		}
		res.Curves = append(res.Curves, CurveFromSeries(series))
	}
	return res, nil
}

func runCycle(p Params, run, nSPEs, chunk int, list bool) float64 {
	return runScenario(p.newSystem(run), cell.Scenario{Kind: "cycle", SPEs: nSPEs, Chunk: chunk,
		Volume: p.BytesPerSPE, List: list})
}
