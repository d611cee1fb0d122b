package core

// Extensions beyond the paper's evaluation, implementing the future work
// its §5 announces: "evaluate small kernels (scalar product, matrix by
// vector, matrix product, streaming benchmarks...)". The kernels do real
// single-precision arithmetic on data streamed through the local stores,
// with SPU compute charged at the architectural 8 flops/cycle (4-lane
// SIMD fused multiply-add), so the GFLOPS curves show exactly where the
// bandwidth findings of the paper start to bound computation.

import (
	"encoding/binary"
	"fmt"
	"math"

	"cellbe/internal/cell"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
)

// simdFlopsPerCycle is the SPU peak: 4 single-precision lanes x FMA.
const simdFlopsPerCycle = 8

// f32 reads a float32 from the local store.
func f32(ls []byte, off int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(ls[off : off+4]))
}

// putf32 writes a float32 to a byte slice.
func putf32(b []byte, off int, v float32) {
	binary.LittleEndian.PutUint32(b[off:off+4], math.Float32bits(v))
}

// Kernel identifies one of the extension compute kernels.
type Kernel int

// The §5 kernel suite.
const (
	KernelDot Kernel = iota
	KernelMatVec
	KernelMatMul
)

func (k Kernel) String() string {
	switch k {
	case KernelDot:
		return "dot"
	case KernelMatVec:
		return "matvec"
	case KernelMatMul:
		return "matmul"
	}
	return "?"
}

// ComputeKernels measures achieved GFLOPS for the three kernels on 1 to 8
// SPEs. Dot product (1/4 flop per byte) and matrix-vector (1/2 flop per
// byte) are bandwidth-bound and flatten exactly where Figure 8 says SPE
// memory bandwidth saturates; blocked matrix multiply (flops grow with the
// tile edge) scales to all 8 SPEs.
func ComputeKernels(p Params) (*Result, error) {
	res := &Result{
		Name:   "kernels",
		Title:  "Extension (§5 future work): streamed compute kernels, GFLOPS by SPE count",
		XLabel: "SPEs",
		YLabel: "GFLOPS",
	}
	kernels := []Kernel{KernelDot, KernelMatVec, KernelMatMul}
	return p.kernelFigure(res, p.Runs, labelsOf(kernels), p.speCounts(SPECounts), func(c, n int, sys *cell.System) func() float64 {
		return p.computeKernel(sys, kernels[c], n)
	})
}

// computeKernel installs kernel k on n SPEs of sys; its read-out is the
// aggregate GFLOPS at the system clock.
func (p Params) computeKernel(sys *cell.System, k Kernel, n int) func() float64 {
	volume := p.BytesPerSPE
	var lastEnd sim.Time
	var totalFlops int64
	for i := 0; i < n; i++ {
		var base, base2 int64
		switch k {
		case KernelDot:
			base = sys.Alloc(volume, 1<<16)
			base2 = sys.Alloc(volume, 1<<16)
			fillF32(sys, base, int(volume), 1.5)
			fillF32(sys, base2, int(volume), 0.5)
		case KernelMatVec, KernelMatMul:
			base = sys.Alloc(volume, 1<<16)
			fillF32(sys, base, int(volume), 2.0)
		}
		sys.SPEs[i].Run(fmt.Sprintf("%v%d", k, i), func(ctx *spe.Context) {
			switch k {
			case KernelDot:
				totalFlops += dotKernel(ctx, base, base2, volume)
			case KernelMatVec:
				totalFlops += matVecKernel(ctx, base, volume)
			case KernelMatMul:
				totalFlops += matMulKernel(ctx, base, volume)
			}
			lastEnd = max(lastEnd, ctx.Decrementer())
		})
	}
	return func() float64 {
		return float64(totalFlops) * sys.Config().ClockGHz / float64(lastEnd)
	}
}

// fillF32 writes a repeating float pattern into simulated RAM so the
// kernels crunch real, verifiable data.
func fillF32(sys *cell.System, base int64, bytes int, v float32) {
	buf := make([]byte, bytes)
	for off := 0; off < bytes; off += 4 {
		putf32(buf, off, v+float32(off%64)/64)
	}
	sys.Mem.RAM().Write(base, buf)
}

// dotKernel streams two vectors in 16 KB blocks, double-buffered, and
// accumulates x·y. Returns flops performed (2 per element).
func dotKernel(ctx *spe.Context, xBase, yBase int64, volume int64) int64 {
	const block = 16384
	var acc float32
	ls := ctx.SPE().LS()
	blocks := volume / block
	// Buffers: x at slots 0/1, y at slots 2/3 (16 KB each).
	issue := func(blk int64) {
		b := int(blk % 2)
		ctx.Get(b*block, xBase+blk*block, block, b)
		ctx.Get((2+b)*block, yBase+blk*block, block, 2+b)
	}
	issue(0)
	for blk := int64(0); blk < blocks; blk++ {
		b := int(blk % 2)
		if blk+1 < blocks {
			issue(blk + 1)
		}
		ctx.WaitTagMask(1<<b | 1<<(2+b))
		elems := block / 4
		for e := 0; e < elems; e++ {
			acc += f32(ls, b*block+4*e) * f32(ls, (2+b)*block+4*e)
		}
		// 2 flops/element at 8 flops/cycle.
		ctx.Wait(sim.Time(2 * elems / simdFlopsPerCycle))
	}
	putf32(ls[255*1024:], 0, acc) // park the result in LS
	return 2 * (volume / 4)
}

// matVecKernel computes y = A·x for a resident x and a streamed A
// (row-major, rows of 1024 floats = 4 KB). Returns flops (2 per element
// of A).
func matVecKernel(ctx *spe.Context, aBase int64, volume int64) int64 {
	const rowFloats = 1024
	const rowBytes = rowFloats * 4
	const rowsPerBlock = 4 // 16 KB blocks
	ls := ctx.SPE().LS()
	// x occupies LS[64K, 64K+4K); y accumulates at LS[70K...).
	const xOff = 64 << 10
	const yOff = 72 << 10
	for i := 0; i < rowFloats; i++ {
		putf32(ls, xOff+4*i, 1.0/float32(i+1))
	}
	blocks := volume / (rowsPerBlock * rowBytes)
	issue := func(blk int64) {
		b := int(blk % 2)
		ctx.Get(b*16384, aBase+blk*rowsPerBlock*rowBytes, 16384, b)
	}
	issue(0)
	for blk := int64(0); blk < blocks; blk++ {
		b := int(blk % 2)
		if blk+1 < blocks {
			issue(blk + 1)
		}
		ctx.WaitTag(b)
		for r := 0; r < rowsPerBlock; r++ {
			var acc float32
			rowOff := b*16384 + r*rowBytes
			for c := 0; c < rowFloats; c++ {
				acc += f32(ls, rowOff+4*c) * f32(ls, xOff+4*c)
			}
			putf32(ls, yOff+((int(blk)*rowsPerBlock+r)%1024)*4, acc)
		}
		ctx.Wait(sim.Time(2 * rowsPerBlock * rowFloats / simdFlopsPerCycle))
	}
	return 2 * (volume / 4)
}

// matMulKernel multiplies 64x64 single-precision tiles (16 KB each): for
// each streamed pair of tiles A and B it computes C += A·B in the local
// store. Arithmetic intensity is 64x higher than the dot product, so this
// kernel stays compute-bound and scales with SPE count. Returns flops.
func matMulKernel(ctx *spe.Context, base int64, volume int64) int64 {
	const edge = 64
	const tileBytes = edge * edge * 4 // 16 KB
	ls := ctx.SPE().LS()
	// A at 0/16K (double buffered), B at 32K/48K, C resident at 64K.
	pairs := volume / (2 * tileBytes)
	issue := func(pair int64) {
		b := int(pair % 2)
		ctx.Get(b*tileBytes, base+pair*2*tileBytes, tileBytes, b)
		ctx.Get((2+b)*tileBytes, base+pair*2*tileBytes+tileBytes, tileBytes, 2+b)
	}
	issue(0)
	var flops int64
	for pair := int64(0); pair < pairs; pair++ {
		b := int(pair % 2)
		if pair+1 < pairs {
			issue(pair + 1)
		}
		ctx.WaitTagMask(1<<b | 1<<(2+b))
		aOff, bOff, cOff := b*tileBytes, (2+b)*tileBytes, 64<<10
		for i := 0; i < edge; i++ {
			for j := 0; j < edge; j++ {
				var acc float32
				for kk := 0; kk < edge; kk++ {
					acc += f32(ls, aOff+4*(i*edge+kk)) * f32(ls, bOff+4*(kk*edge+j))
				}
				putf32(ls, cOff+4*(i*edge+j), f32(ls, cOff+4*(i*edge+j))+acc)
			}
		}
		flops += 2 * edge * edge * edge
		ctx.Wait(sim.Time(2 * edge * edge * edge / simdFlopsPerCycle))
	}
	return flops
}

// DMALatency is a second extension (after Kistler et al.): the round-trip
// latency of a single synchronous DMA, by size, for LS-to-LS and
// memory-to-LS transfers. It isolates the latency term that the window
// model divides by.
func DMALatency(p Params) (*Result, error) {
	res := &Result{
		Name:   "dma-latency",
		Title:  "Extension: synchronous DMA round-trip latency (cycles)",
		XLabel: "transfer size (bytes)",
		YLabel: "cycles",
	}
	return p.kernelFigure(res, p.Runs, []string{"LS-to-LS", "memory"}, p.chunkSizes(), func(c, size int, sys *cell.System) func() float64 {
		return latencyKernel(sys, c == 1, size)
	})
}

// latencyKernel installs 50 synchronous GETs of size bytes on SPE 0 of
// sys, from main memory or from SPE 1's local store; its read-out is the
// mean round trip in cycles.
func latencyKernel(sys *cell.System, mem bool, size int) func() float64 {
	var ea int64
	if mem {
		ea = sys.Alloc(int64(size), 128)
	} else {
		ea = sys.LSEA(1, 0)
	}
	const iters = 50
	var total sim.Time
	sys.SPEs[0].Run("lat", func(ctx *spe.Context) {
		for i := 0; i < iters; i++ {
			start := ctx.Decrementer()
			ctx.Get(0, ea, size, 0)
			ctx.WaitTag(0)
			total += ctx.Decrementer() - start
		}
	})
	return func() float64 { return float64(total / iters) }
}
