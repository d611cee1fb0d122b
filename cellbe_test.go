package cellbe

// Integration tests of the public API surface: everything a downstream
// user would touch, exercised end to end.

import (
	"bytes"
	"strings"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	payload := []byte("public API round trip payload!!!") // 32 bytes
	src := sys.Alloc(128, 128)
	dst := sys.Alloc(128, 128)
	sys.Mem.RAM().Write(src, payload)

	sys.SPEs[0].Run("k", func(ctx *SPUContext) {
		ctx.Get(0, src, 128, 0)
		ctx.WaitTag(0)
		ctx.Put(0, dst, 128, 1)
		ctx.WaitTag(1)
	})
	sys.Run()

	got := make([]byte, len(payload))
	sys.Mem.RAM().Read(dst, got)
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip got %q", got)
	}
}

func TestPublicExperimentList(t *testing.T) {
	exps := Experiments()
	if len(exps) < 14 {
		t.Fatalf("%d experiments exported, want >= 14", len(exps))
	}
}

func TestPublicRunExperimentAndRender(t *testing.T) {
	p := DefaultParams()
	p.Runs = 1
	p.BytesPerSPE = 512 << 10
	res, err := RunExperiment("spe-ls", p)
	if err != nil {
		t.Fatal(err)
	}
	var table, csv, chart strings.Builder
	if err := WriteTable(&table, res, true); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteChart(&chart, res, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "33.60") {
		t.Errorf("LS table should include the 33.6 GB/s peak:\n%s", table.String())
	}
	if len(csv.String()) == 0 || len(chart.String()) == 0 {
		t.Error("renderers produced no output")
	}
}

func TestPublicRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("does-not-exist", DefaultParams()); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestPublicDMAList(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	a := sys.Alloc(4096, 128)
	b := sys.Alloc(4096, 128)
	sys.Mem.RAM().Write(a, []byte("first"))
	sys.Mem.RAM().Write(b, []byte("second"))
	sys.SPEs[2].Run("k", func(ctx *SPUContext) {
		ctx.GetList(0, []DMAList{{EA: a, Size: 128}, {EA: b, Size: 128}}, 3)
		ctx.WaitTag(3)
	})
	sys.Run()
	ls := sys.SPEs[2].LS()
	if string(ls[:5]) != "first" || string(ls[128:134]) != "second" {
		t.Fatalf("list GET landed wrong: %q %q", ls[:5], ls[128:134])
	}
}

func TestPublicPPEThread(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	buf := sys.Alloc(1<<20, 128)
	var cycles Time
	sys.PPE.Run(0, []PPEPass{{Op: PPELoad, Src: buf, Bytes: 1 << 20, Elem: 8}}, func(pass int, at Time) {
		if pass == 0 {
			cycles = at
		}
	})
	sys.Run()
	if cycles <= 0 {
		t.Fatal("PPE kernel did not run")
	}
	bw := sys.GBps(1<<20, cycles)
	if bw < 1 || bw > 9 {
		t.Fatalf("PPE memory load %.2f GB/s out of plausible range", bw)
	}
}

func TestPublicPipeline(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	src := sys.Alloc(64<<10, 128)
	dst := sys.Alloc(64<<10, 128)
	sys.Mem.RAM().Write(src, []byte("pipe"))
	pl := NewPipeline(sys, 0, 3, src, dst, 64<<10)
	pl.Start()
	sys.Run()
	got := make([]byte, 4)
	sys.Mem.RAM().Read(dst, got)
	if string(got) != "pipe" {
		t.Fatalf("pipeline moved %q", got)
	}
}

func TestPublicRandomLayout(t *testing.T) {
	l := RandomLayout(42)
	seen := map[int]bool{}
	for _, p := range l {
		seen[p] = true
	}
	if len(seen) != NumSPEs {
		t.Fatalf("layout %v is not a permutation", l)
	}
	cfg := DefaultConfig()
	cfg.Layout = l
	sys := NewSystem(cfg)
	if len(sys.SPEs) != NumSPEs {
		t.Fatal("system must expose all SPEs")
	}
}

// Determinism: the same configuration and kernels produce the exact same
// simulated timing, run after run.
func TestPublicDeterminism(t *testing.T) {
	run := func() Time {
		cfg := DefaultConfig()
		cfg.Layout = RandomLayout(5)
		sys := NewSystem(cfg)
		base := sys.Alloc(1<<20, 1<<16)
		for i := 0; i < 4; i++ {
			i := i
			sys.SPEs[i].Run("k", func(ctx *SPUContext) {
				for off := int64(0); off < 1<<20; off += MaxDMA {
					ctx.Get(int(off)%(128<<10), base+off, MaxDMA, i%4)
				}
				ctx.WaitTagMask(0xf)
			})
		}
		sys.Run()
		return sys.Eng.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulation not deterministic: %d vs %d cycles", a, b)
	}
}
