package core

import (
	"math"
	"testing"

	"cellbe/internal/spe"
)

func TestDotKernelComputesCorrectValue(t *testing.T) {
	p := fastParams()
	sys := testSystem(p)
	const volume = 64 << 10
	x := sys.Alloc(volume, 1<<16)
	y := sys.Alloc(volume, 1<<16)
	// x[i] = 2, y[i] = 3 -> dot = 6 * nElems.
	buf := make([]byte, volume)
	for off := 0; off < volume; off += 4 {
		putf32(buf, off, 2)
	}
	sys.Mem.RAM().Write(x, buf)
	for off := 0; off < volume; off += 4 {
		putf32(buf, off, 3)
	}
	sys.Mem.RAM().Write(y, buf)

	var flops int64
	sys.SPEs[0].Run("dot", func(ctx *spe.Context) {
		flops = dotKernel(ctx, x, y, volume)
	})
	sys.Run()
	got := f32(sys.SPEs[0].LS(), 255*1024)
	want := float32(6 * volume / 4)
	if math.Abs(float64(got-want)) > 1 {
		t.Fatalf("dot = %v, want %v", got, want)
	}
	if flops != 2*(volume/4) {
		t.Fatalf("flops = %d, want %d", flops, 2*(volume/4))
	}
}

func TestMatMulKernelFlops(t *testing.T) {
	p := fastParams()
	sys := testSystem(p)
	const volume = 128 << 10 // 4 tile pairs
	a := sys.Alloc(volume, 1<<16)
	fillF32(sys, a, volume, 1.0)
	var flops int64
	sys.SPEs[0].Run("mm", func(ctx *spe.Context) {
		flops = matMulKernel(ctx, a, volume)
	})
	sys.Run()
	wantPairs := int64(volume / (2 * 16384))
	if flops != wantPairs*2*64*64*64 {
		t.Fatalf("flops = %d, want %d", flops, wantPairs*2*64*64*64)
	}
}

func TestComputeKernelsShape(t *testing.T) {
	p := fastParams()
	p.Runs = 1
	p.BytesPerSPE = 512 << 10
	res, err := ComputeKernels(p)
	if err != nil {
		t.Fatal(err)
	}
	// Dot product is bandwidth-bound: 8 SPEs add little over 4.
	dot4, _ := res.At("dot", 4)
	dot8, _ := res.At("dot", 8)
	if dot8.Mean > dot4.Mean*1.35 {
		t.Errorf("dot should saturate with memory bandwidth: 4 SPEs %.1f, 8 SPEs %.1f GFLOPS",
			dot4.Mean, dot8.Mean)
	}
	// Matmul is compute-bound: 8 SPEs ~ 2x of 4.
	mm4, _ := res.At("matmul", 4)
	mm8, _ := res.At("matmul", 8)
	if mm8.Mean < mm4.Mean*1.7 {
		t.Errorf("matmul should scale with SPEs: 4 SPEs %.1f, 8 SPEs %.1f GFLOPS",
			mm4.Mean, mm8.Mean)
	}
	// Matmul per SPE approaches the 16.8 GFLOPS SPU peak.
	mm1, _ := res.At("matmul", 1)
	if mm1.Mean < 10 || mm1.Mean > 17 {
		t.Errorf("1-SPE matmul %.1f GFLOPS, want near the 16.8 peak", mm1.Mean)
	}
}

func TestDMALatencyShape(t *testing.T) {
	p := fastParams()
	p.Runs = 2
	res, err := DMALatency(p)
	if err != nil {
		t.Fatal(err)
	}
	lsSmall, _ := res.At("LS-to-LS", 128)
	memSmall, _ := res.At("memory", 128)
	if memSmall.Mean <= lsSmall.Mean {
		t.Errorf("memory latency (%.0f) must exceed LS-to-LS (%.0f)", memSmall.Mean, lsSmall.Mean)
	}
	lsBig, _ := res.At("LS-to-LS", 16384)
	if lsBig.Mean <= lsSmall.Mean {
		t.Error("bigger transfers must take longer")
	}
	// Small LS-to-LS round trip is on the order of 100-300 cycles.
	if lsSmall.Mean < 50 || lsSmall.Mean > 500 {
		t.Errorf("128B LS-to-LS latency %.0f cycles implausible", lsSmall.Mean)
	}
}

// TestKernelFiguresHonourAxisRestrictions: the SPE-count and DMA-size
// axes of the kernel figures obey Params.SPESweep and Params.Chunks, as
// every sweep-backed figure does.
func TestKernelFiguresHonourAxisRestrictions(t *testing.T) {
	p := tinyParams()
	p.SPESweep = []int{2}
	p.Chunks = []int{4096}
	for _, f := range []struct {
		run func(Params) (*Result, error)
		x   int
	}{{ComputeKernels, 2}, {STREAM, 2}, {DMALatency, 4096}} {
		res, err := f.run(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Curves {
			if len(c.Points) != 1 || c.Points[0].X != f.x {
				t.Errorf("%s %q: points %+v, want only x=%d", res.Name, c.Label, c.Points, f.x)
			}
		}
	}
}
