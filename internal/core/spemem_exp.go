package core

import (
	"fmt"

	"cellbe/internal/cell"
	"cellbe/internal/spe"
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
	var labels []string
	var specs []SweepSpec
	for _, n := range p.speCounts(SPECounts) {
		labels = append(labels, fmt.Sprintf("%d SPE", n))
		specs = append(specs, SweepSpec{
			Scenario: "mem", SPEs: n, Op: op.scenarioOp(), List: list, Chunks: p.chunkSizes()})
	}
	return res.withCurves(p.Curves(labels, specs...))
}

// SPELocalStore reproduces §4.2.2: SPU load/store/copy bandwidth against
// its own local store for access widths of 1 to 16 bytes. Only 16-byte
// accesses reach the 33.6 GB/s peak; the SPU ISA has no narrower loads, so
// smaller accesses pay extract/merge overhead.
func SPELocalStore(p Params) (*Result, error) {
	res := &Result{
		Name:   "spe-ls",
		Title:  "SPU to Local Store load/store bandwidth (§4.2.2)",
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	volume := 16 << 20 // pure compute-side loop; cheap to simulate
	ops := []spe.LSOp{spe.LSLoad, spe.LSStore, spe.LSCopy}
	return p.kernelFigure(res, 1, []string{"load", "store", "copy"}, p.elemSizes(), func(c, elem int, sys *cell.System) func() float64 {
		var bw float64
		sys.SPEs[0].Run("ls", func(ctx *spe.Context) {
			cycles := ctx.StreamLS(ops[c], elem, volume)
			bytes := int64(volume)
			if ops[c] == spe.LSCopy {
				bytes *= 2
			}
			bw = sys.GBps(bytes, cycles)
		})
		return func() float64 { return bw }
	})
}
