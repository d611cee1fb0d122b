package core

import (
	"fmt"

	"cellbe/internal/spe"
	"cellbe/internal/stats"
)

// DMAOp selects the transfer direction of a memory-streaming kernel.
type DMAOp int

// Memory streaming operations of Figure 8.
const (
	DMAGet DMAOp = iota
	DMAPut
	DMACopy
)

func (o DMAOp) String() string {
	switch o {
	case DMAGet:
		return "GET"
	case DMAPut:
		return "PUT"
	case DMACopy:
		return "GET+PUT"
	}
	return "?"
}

// scenarioOp is the mem-scenario operation running o.
func (o DMAOp) scenarioOp() string {
	return [...]string{DMAGet: "get", DMAPut: "put", DMACopy: "copy"}[o]
}

// SPEMemory reproduces Figure 8: DMA-elem GET, PUT and GET+PUT between
// SPEs and main memory, for 1 to 8 active SPEs (weak scaling: an
// independent region per SPE) and element sizes 128 B to 16 KB. Each
// configuration is repeated across Runs logical-to-physical layouts and
// the average reported, as in the paper. Set list to run the DMA-list
// variant instead (an extension: the paper reports get/put list
// differences only for SPE-to-SPE transfers).
func SPEMemory(p Params, op DMAOp, list bool) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	kind := "DMA-elem"
	if list {
		kind = "DMA-list"
	}
	res := &Result{
		Name:   "spe-mem",
		Title:  fmt.Sprintf("SPE to memory %s transfers (%s), 1 to 8 SPEs", op, kind),
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	for _, n := range p.speCounts(SPECounts) {
		c, err := p.SweepCurve(fmt.Sprintf("%d SPE", n), SweepSpec{
			Scenario: "mem", SPEs: n, Op: op.scenarioOp(), List: list, Chunks: p.chunkSizes()})
		if err != nil {
			return nil, err
		}
		res.Curves = append(res.Curves, c)
	}
	return res, nil
}

// SPELocalStore reproduces §4.2.2: SPU load/store/copy bandwidth against
// its own local store for access widths of 1 to 16 bytes. Only 16-byte
// accesses reach the 33.6 GB/s peak; the SPU ISA has no narrower loads, so
// smaller accesses pay extract/merge overhead.
func SPELocalStore(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "spe-ls",
		Title:  "SPU to Local Store load/store bandwidth (§4.2.2)",
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	volume := 16 << 20 // pure compute-side loop; cheap to simulate
	for _, op := range []spe.LSOp{spe.LSLoad, spe.LSStore, spe.LSCopy} {
		label := map[spe.LSOp]string{spe.LSLoad: "load", spe.LSStore: "store", spe.LSCopy: "copy"}[op]
		series := stats.NewSeries(label, p.elemSizes())
		for _, elem := range p.elemSizes() {
			sys := p.newSystem(0)
			var bw float64
			sys.SPEs[0].Run("ls", func(ctx *spe.Context) {
				cycles := ctx.StreamLS(op, elem, volume)
				bytes := int64(volume)
				if op == spe.LSCopy {
					bytes *= 2
				}
				bw = sys.GBps(bytes, cycles)
			})
			sys.Run()
			series.Add(elem, bw)
		}
		res.Curves = append(res.Curves, CurveFromSeries(series))
	}
	return res, nil
}
