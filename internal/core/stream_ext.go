package core

// The STREAM benchmark (McCalpin), which the paper's related-work section
// uses as its frame of reference ("much in a similar way as the STREAMS
// benchmark does in regular processors"), ported to SPEs: each SPE works a
// private slice of the arrays with double-buffered DMA, real
// single-precision arithmetic, and SIMD-rate compute costs. The four
// kernels are the classic Copy, Scale, Add and Triad.

import (
	"fmt"

	"cellbe/internal/cell"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
)

// StreamKernel is one of the four STREAM operations.
type StreamKernel int

// The STREAM kernels.
const (
	StreamCopy  StreamKernel = iota // c[i] = a[i]
	StreamScale                     // b[i] = q*c[i]
	StreamAdd                       // c[i] = a[i]+b[i]
	StreamTriad                     // a[i] = b[i]+q*c[i]
)

func (k StreamKernel) String() string {
	switch k {
	case StreamCopy:
		return "copy"
	case StreamScale:
		return "scale"
	case StreamAdd:
		return "add"
	case StreamTriad:
		return "triad"
	}
	return "?"
}

// streams returns how many arrays the kernel reads and writes.
func (k StreamKernel) streams() (reads, writes int) {
	switch k {
	case StreamCopy, StreamScale:
		return 1, 1
	default:
		return 2, 1
	}
}

// STREAM measures the four kernels for 1 to 8 SPEs (weak scaling, private
// slices). Bandwidth counts bytes read plus bytes written, as McCalpin
// does.
func STREAM(p Params) (*Result, error) {
	res := &Result{
		Name:   "stream",
		Title:  "STREAM (copy/scale/add/triad) on SPEs — extension after McCalpin",
		XLabel: "SPEs",
		YLabel: "GB/s",
	}
	kernels := []StreamKernel{StreamCopy, StreamScale, StreamAdd, StreamTriad}
	return p.kernelFigure(res, p.Runs, labelsOf(kernels), SPECounts, func(c, n int, sys *cell.System) func() float64 {
		return p.streamKernel(sys, kernels[c], n)
	})
}

// streamKernel installs STREAM kernel k on n SPEs of sys, each over
// private BytesPerSPE slices; its read-out is the GB/s read plus written.
func (p Params) streamKernel(sys *cell.System, k StreamKernel, n int) func() float64 {
	slice := p.BytesPerSPE
	var lastEnd sim.Time
	for i := 0; i < n; i++ {
		a := sys.Alloc(slice, 1<<16)
		b := sys.Alloc(slice, 1<<16)
		c := sys.Alloc(slice, 1<<16)
		fillF32(sys, a, int(slice), 1.0)
		fillF32(sys, b, int(slice), 2.0)
		fillF32(sys, c, int(slice), 3.0)
		sys.SPEs[i].Run(fmt.Sprintf("stream%d", i), func(ctx *spe.Context) {
			streamSliceKernel(ctx, k, a, b, c, slice)
			lastEnd = max(lastEnd, ctx.Decrementer())
		})
	}
	return func() float64 {
		reads, writes := k.streams()
		return sys.GBps(int64(n)*slice*int64(reads+writes), lastEnd)
	}
}

// streamSliceKernel runs one SPE's STREAM slice: 16 KB blocks, double
// buffered (in0/in1 at slots 0..3, outputs at 4/5), compute charged at one
// cycle per 16-byte quadword op.
func streamSliceKernel(ctx *spe.Context, k StreamKernel, a, b, c int64, slice int64) {
	const block = 16384
	const q = float32(3.0)
	ls := ctx.SPE().LS()
	blocks := slice / block
	reads, _ := k.streams()

	// in/out EAs per kernel.
	var in0, in1, out int64
	switch k {
	case StreamCopy:
		in0, out = a, c
	case StreamScale:
		in0, out = c, b
	case StreamAdd:
		in0, in1, out = a, b, c
	case StreamTriad:
		in0, in1, out = b, c, a
	}

	issue := func(blk int64) {
		s := int(blk % 2)
		ctx.Get(s*block, in0+blk*block, block, s)
		if reads == 2 {
			ctx.Get((2+s)*block, in1+blk*block, block, 2+s)
		}
	}
	issue(0)
	for blk := int64(0); blk < blocks; blk++ {
		s := int(blk % 2)
		if blk+1 < blocks {
			issue(blk + 1)
		}
		mask := uint32(1 << s)
		if reads == 2 {
			mask |= 1 << (2 + s)
		}
		ctx.WaitTagMask(mask)
		// Output buffer s must be free of its previous PUT.
		if blk >= 2 {
			ctx.WaitTag(4 + s)
		}
		elems := block / 4
		oOff := (4 + s) * block
		for e := 0; e < elems; e++ {
			x := f32(ls, s*block+4*e)
			var v float32
			switch k {
			case StreamCopy:
				v = x
			case StreamScale:
				v = q * x
			case StreamAdd:
				v = x + f32(ls, (2+s)*block+4*e)
			case StreamTriad:
				v = x + q*f32(ls, (2+s)*block+4*e)
			}
			putf32(ls, oOff+4*e, v)
		}
		ctx.Wait(sim.Time(elems / 4)) // one quadword op per cycle
		ctx.Put(oOff, out+blk*block, block, 4+s)
	}
	ctx.WaitTagMask(1<<4 | 1<<5)
}
