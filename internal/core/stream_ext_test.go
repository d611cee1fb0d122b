package core

import (
	"math"
	"testing"

	"cellbe/internal/spe"
)

func TestStreamScaleComputesCorrectly(t *testing.T) {
	p := fastParams()
	sys := testSystem(p)
	const slice = 64 << 10
	a := sys.Alloc(slice, 1<<16)
	b := sys.Alloc(slice, 1<<16)
	c := sys.Alloc(slice, 1<<16)
	buf := make([]byte, slice)
	for off := 0; off < slice; off += 4 {
		putf32(buf, off, float32(off/4)+1)
	}
	sys.Mem.RAM().Write(c, buf)
	sys.SPEs[0].Run("scale", func(ctx *spe.Context) {
		streamSliceKernel(ctx, StreamScale, a, b, c, slice)
	})
	sys.Run()
	got := make([]byte, slice)
	sys.Mem.RAM().Read(b, got)
	for off := 0; off < slice; off += 4 {
		want := 3 * (float32(off/4) + 1)
		if gotv := f32(got, off); math.Abs(float64(gotv-want)) > 1e-3 {
			t.Fatalf("b[%d] = %v, want %v", off/4, gotv, want)
		}
	}
}

func TestStreamTriadComputesCorrectly(t *testing.T) {
	p := fastParams()
	sys := testSystem(p)
	const slice = 32 << 10
	a := sys.Alloc(slice, 1<<16)
	b := sys.Alloc(slice, 1<<16)
	c := sys.Alloc(slice, 1<<16)
	buf := make([]byte, slice)
	for off := 0; off < slice; off += 4 {
		putf32(buf, off, 2)
	}
	sys.Mem.RAM().Write(b, buf)
	for off := 0; off < slice; off += 4 {
		putf32(buf, off, 5)
	}
	sys.Mem.RAM().Write(c, buf)
	sys.SPEs[0].Run("triad", func(ctx *spe.Context) {
		streamSliceKernel(ctx, StreamTriad, a, b, c, slice)
	})
	sys.Run()
	got := make([]byte, slice)
	sys.Mem.RAM().Read(a, got)
	for off := 0; off < slice; off += 4 {
		if gotv := f32(got, off); gotv != 17 { // 2 + 3*5
			t.Fatalf("a[%d] = %v, want 17", off/4, gotv)
		}
	}
}

func TestSTREAMShape(t *testing.T) {
	p := fastParams()
	p.Runs = 1
	res, err := STREAM(p)
	if err != nil {
		t.Fatal(err)
	}
	// All four kernels present, bandwidth-bound saturation beyond 4 SPEs
	// (the Figure 8 ceiling).
	for _, k := range []string{"copy", "scale", "add", "triad"} {
		one, ok := res.At(k, 1)
		if !ok {
			t.Fatalf("missing %s curve", k)
		}
		if one.Mean < 6 || one.Mean > 14 {
			t.Errorf("%s 1 SPE: %.1f GB/s, want near the single-SPE memory bound", k, one.Mean)
		}
		four, _ := res.At(k, 4)
		eight, _ := res.At(k, 8)
		if eight.Mean > four.Mean*1.25 {
			t.Errorf("%s should saturate: 4 SPEs %.1f, 8 SPEs %.1f", k, four.Mean, eight.Mean)
		}
	}
}
