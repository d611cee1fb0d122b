package cell

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"cellbe/internal/eib"
	"cellbe/internal/mfc"
	"cellbe/internal/ppe"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
	"cellbe/internal/xdr"
)

func TestDefaultSystemWiring(t *testing.T) {
	s := New(DefaultConfig())
	if len(s.SPEs) != NumSPEs {
		t.Fatalf("%d SPEs, want %d", len(s.SPEs), NumSPEs)
	}
	for i, sp := range s.SPEs {
		if sp.Index() != i {
			t.Fatalf("SPE %d has index %d", i, sp.Index())
		}
		if sp.Ramp() != eib.PhysicalSPERamp(i) {
			t.Fatalf("identity layout: SPE %d on ramp %v", i, sp.Ramp())
		}
	}
}

func TestRandomLayoutIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		l := RandomLayout(seed)
		if len(l) != NumSPEs {
			return false
		}
		seen := make(map[int]bool)
		for _, p := range l {
			if p < 0 || p >= NumSPEs || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Seed 0 is identity; two different seeds usually differ.
	id := RandomLayout(0)
	for i, p := range id {
		if p != i {
			t.Fatal("seed 0 must be the identity layout")
		}
	}
}

func TestBadLayoutPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = []int{0, 1, 2, 3, 4, 5, 6, 6}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate layout entry should panic")
		}
	}()
	New(cfg)
}

func TestLSEAMapping(t *testing.T) {
	s := New(DefaultConfig())
	ea := s.LSEA(3, 0x100)
	logical, off, ok := s.resolveLS(ea)
	if !ok || logical != 3 || off != 0x100 {
		t.Fatalf("resolveLS(%#x) = %d,%#x,%v", ea, logical, off, ok)
	}
	if _, _, ok := s.resolveLS(12345); ok {
		t.Fatal("RAM address must not resolve as LS")
	}
}

func TestAllocAlignment(t *testing.T) {
	s := New(DefaultConfig())
	a := s.Alloc(100, 128)
	b := s.Alloc(100, 4096)
	if a%128 != 0 || b%4096 != 0 || b <= a {
		t.Fatalf("bad allocations %#x %#x", a, b)
	}
}

func TestGBps(t *testing.T) {
	s := New(DefaultConfig())
	// 16 bytes per cycle at 2.1 GHz = 33.6 GB/s.
	if got := s.GBps(16000, 1000); got != 33.6 {
		t.Fatalf("GBps = %v, want 33.6", got)
	}
	if s.GBps(1, 0) != 0 {
		t.Fatal("zero cycles must yield 0")
	}
}

func TestDMAGetFromMemory(t *testing.T) {
	s := New(DefaultConfig())
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	addr := s.Alloc(4096, 128)
	s.Mem.RAM().Write(addr, payload)

	sp := s.SPEs[0]
	sp.Run("getter", func(ctx *spe.Context) {
		ctx.Get(0, addr, 4096, 1)
		ctx.WaitTag(1)
	})
	s.Run()
	if !bytes.Equal(sp.LS()[:4096], payload) {
		t.Fatal("DMA GET payload mismatch")
	}
}

func TestDMAPutToMemory(t *testing.T) {
	s := New(DefaultConfig())
	sp := s.SPEs[2]
	copy(sp.LS(), []byte("payload via MFC put"))
	addr := s.Alloc(128, 128)
	sp.Run("putter", func(ctx *spe.Context) {
		ctx.Put(0, addr, 128, 0)
		ctx.WaitTag(0)
	})
	s.Run()
	got := make([]byte, 19)
	s.Mem.RAM().Read(addr, got)
	if string(got) != "payload via MFC put" {
		t.Fatalf("memory holds %q", got)
	}
}

func TestDMASPEToSPE(t *testing.T) {
	s := New(DefaultConfig())
	src := s.SPEs[1]
	for i := 0; i < 1024; i++ {
		src.LS()[i] = byte(i ^ 0x5a)
	}
	dst := s.SPEs[6]
	dst.Run("puller", func(ctx *spe.Context) {
		ctx.Get(2048, s.LSEA(1, 0), 1024, 5)
		ctx.WaitTag(5)
	})
	s.Run()
	if !bytes.Equal(dst.LS()[2048:2048+1024], src.LS()[:1024]) {
		t.Fatal("SPE-to-SPE GET payload mismatch")
	}
}

// TestRAMMaterializesWrittenLines pins what a scattered-write point
// costs in RAM storage, at the workloads figure's gups and md points:
// the RAM materializes one block per line written, so it holds at most
// one line per bank write request (each moves min(chunk, 128) bytes
// within one line), and these scattered patterns, whose writes seldom
// share a line, hold more than one line per two requests. At 64 KiB
// pages the gups point touched 256 pages, 16 MiB for 128 KiB written.
func TestRAMMaterializesWrittenLines(t *testing.T) {
	for _, sc := range []Scenario{
		{Kind: "gups", SPEs: 8, Chunk: 8, Volume: 16 << 10, Op: "both"},
		{Kind: "md", SPEs: 8, Chunk: 512, Volume: 128 << 10},
	} {
		sys := New(DefaultConfig())
		if _, err := sc.Install(sys); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunChecked(0); err != nil {
			t.Fatal(err)
		}
		written := sys.Mem.BankStats(0).WriteBytes + sys.Mem.BankStats(1).WriteBytes
		requests := int(written) / min(sc.Chunk, xdr.LineBytes)
		touched := sys.Mem.RAM().TouchedPages()
		t.Logf("%s: %d blocks for %d write requests (%d B)", sc.Kind, touched, requests, written)
		if touched > requests || 2*touched <= requests {
			t.Errorf("%s: %d blocks materialized for %d write requests, want in (%d, %d]",
				sc.Kind, touched, requests, requests/2, requests)
		}
		sys.Release()
	}
}

func TestDMARoundTripThroughMemory(t *testing.T) {
	// SPE 0 PUTs to memory; SPE 1 GETs it after a mailbox handshake.
	s := New(DefaultConfig())
	addr := s.Alloc(2048, 128)
	a, b := s.SPEs[0], s.SPEs[1]
	for i := 0; i < 2048; i++ {
		a.LS()[i] = byte(3 * i)
	}
	a.Run("producer", func(ctx *spe.Context) {
		ctx.Put(0, addr, 2048, 0)
		ctx.WaitTag(0)
		b.Inbox.Write(ctx.Process, 1) // signal ready
	})
	b.Run("consumer", func(ctx *spe.Context) {
		if v := ctx.ReadMailbox(); v != 1 {
			t.Errorf("mailbox value %d", v)
		}
		ctx.Get(0, addr, 2048, 0)
		ctx.WaitTag(0)
	})
	s.Run()
	if !bytes.Equal(b.LS()[:2048], a.LS()[:2048]) {
		t.Fatal("round trip payload mismatch")
	}
}

func TestLayoutChangesRamps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = RandomLayout(7)
	s := New(cfg)
	identity := true
	for i, sp := range s.SPEs {
		if sp.Ramp() != eib.PhysicalSPERamp(i) {
			identity = false
		}
	}
	if identity {
		t.Fatal("seed 7 layout should permute ramps")
	}
}

func TestPPEKernelRunsOverEIB(t *testing.T) {
	s := New(DefaultConfig())
	addr := s.Alloc(1<<20, 128)
	s.PPE.Spawn(0, "stream", func(th *ppe.Thread) {
		th.StreamLoad(addr, 1<<20, 8)
	})
	s.Run()
	if s.PPE.Stats().L2Misses == 0 {
		t.Fatal("a 1MB stream must miss L2")
	}
	if s.Bus.Stats().Transfers == 0 {
		t.Fatal("PPE line fills must travel over the EIB")
	}
	if s.Mem.BankStats(0).ReadBytes == 0 || s.Mem.BankStats(1).ReadBytes == 0 {
		t.Fatal("interleaved allocation must hit both banks")
	}
}

func TestNoiseInjection(t *testing.T) {
	run := func(noise bool) int64 {
		cfg := DefaultConfig()
		if noise {
			cfg.NoiseEvery = 2000
			cfg.NoiseCycles = 400
		}
		s := New(cfg)
		addr := s.Alloc(1<<20, 128)
		var cycles int64
		s.PPE.Spawn(0, "stream", func(th *ppe.Thread) {
			start := th.Now()
			th.StreamLoad(addr, 1<<20, 8)
			cycles = int64(th.Now() - start)
		})
		s.Run()
		return cycles
	}
	quiet := run(false)
	noisy := run(true)
	if noisy <= quiet {
		t.Fatalf("noise injection must slow the PPE stream: %d vs %d", noisy, quiet)
	}
}

func TestDMASPEToSPEWrite(t *testing.T) {
	// Active SPE PUTs into a passive SPE's local store (the paper's pair
	// experiment write direction), exercising the LS write fabric path.
	s := New(DefaultConfig())
	src := s.SPEs[4]
	for i := 0; i < 512; i++ {
		src.LS()[i] = byte(200 - i)
	}
	src.Run("pusher", func(ctx *spe.Context) {
		ctx.Put(0, s.LSEA(7, 8192), 512, 2)
		ctx.WaitTag(2)
	})
	s.Run()
	if !bytes.Equal(s.SPEs[7].LS()[8192:8192+512], src.LS()[:512]) {
		t.Fatal("SPE-to-SPE PUT payload mismatch")
	}
}

func TestProxyDMAFromPPESide(t *testing.T) {
	// The PPE-side proxy queue drives an SPE's MFC without SPU code: the
	// way a host runtime stages data before starting a kernel.
	s := New(DefaultConfig())
	addr := s.Alloc(1024, 128)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i ^ 0x33)
	}
	s.Mem.RAM().Write(addr, payload)
	done := false
	err := s.SPEs[3].MFC().EnqueueProxy(mfc.Cmd{Kind: mfc.Get, Tag: 0, LSAddr: 0, EA: addr, Size: 1024}, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !done || !bytes.Equal(s.SPEs[3].LS()[:1024], payload) {
		t.Fatal("proxy GET did not stage the payload")
	}
}

func TestConfigAndLayoutAccessors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = RandomLayout(9)
	s := New(cfg)
	if got := s.Config(); got.ClockGHz != cfg.ClockGHz {
		t.Fatal("Config accessor mismatch")
	}
	l := s.Layout()
	l[0] = 99 // returned slice must be a copy
	if s.Layout()[0] == 99 {
		t.Fatal("Layout must return a defensive copy")
	}
}

// TestConfigValidateEIB: ring counts the counter block cannot hold,
// non-positive bus geometry and memory geometry the RAM or the bank
// placement cannot use are rejected up front instead of panicking at the
// first grant, inside eib.New or at the first memory access.
func TestConfigValidateEIB(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"one ring per direction", func(c *Config) { c.EIB.RingsPerDirection = 1 }, true},
		{"zero rings", func(c *Config) { c.EIB.RingsPerDirection = 0 }, false},
		{"three rings per direction", func(c *Config) { c.EIB.RingsPerDirection = 3 }, false},
		{"zero bus period", func(c *Config) { c.EIB.BusPeriod = 0 }, false},
		{"zero beat bytes", func(c *Config) { c.EIB.BeatBytes = 0 }, false},
		{"zero page size", func(c *Config) { c.Mem.PageBytes = 0 }, false},
		{"memory not whole lines", func(c *Config) { c.Mem.TotalBytes += 64 }, false},
		{"zero memory", func(c *Config) { c.Mem.TotalBytes = 0 }, false},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestLSEABounds(t *testing.T) {
	s := New(DefaultConfig())
	for _, bad := range []struct{ spe, off int }{{-1, 0}, {8, 0}, {0, -1}, {0, spe.LocalStoreBytes}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LSEA(%d,%d) should panic", bad.spe, bad.off)
				}
			}()
			s.LSEA(bad.spe, bad.off)
		}()
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	s := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("allocating past RAM should panic")
		}
	}()
	s.Alloc(s.Config().Mem.TotalBytes+1, 128)
}

// Property: any aligned payload round-trips SPE LS -> memory -> another
// SPE LS through two chained DMAs.
func TestDMAChainProperty(t *testing.T) {
	f := func(seedByte uint8, sizeSel uint8) bool {
		sizes := []int{16, 128, 1024, 2048, 16384}
		size := sizes[int(sizeSel)%len(sizes)]
		s := New(DefaultConfig())
		addr := s.Alloc(int64(size), 128)
		a, b := s.SPEs[0], s.SPEs[5]
		for i := 0; i < size; i++ {
			a.LS()[i] = seedByte + byte(i*3)
		}
		a.Run("w", func(ctx *spe.Context) {
			ctx.Put(0, addr, size, 0)
			ctx.WaitTag(0)
			b.Inbox.Write(ctx.Process, 1)
		})
		b.Run("r", func(ctx *spe.Context) {
			ctx.ReadMailbox()
			ctx.Get(0, addr, size, 0)
			ctx.WaitTag(0)
		})
		s.Run()
		return bytes.Equal(b.LS()[:size], a.LS()[:size])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSignalNotification(t *testing.T) {
	// Two producers OR distinct bits into SPE 5's SNR0; the consumer
	// collects until both bits arrive (OR mode must not lose signals).
	s := New(DefaultConfig())
	target := s.SignalEA(5, 0)
	var got uint32
	s.SPEs[5].Run("consumer", func(ctx *spe.Context) {
		for got != 0b11 {
			got |= ctx.ReadSignal(0)
		}
	})
	for i, bit := range []uint32{0b01, 0b10} {
		i := i
		bit := bit
		s.SPEs[i].Run("producer", func(ctx *spe.Context) {
			ctx.Wait(sim.Time(100 * (i + 1)))
			ctx.Signal(target, bit, 0)
			ctx.WaitTag(0)
		})
	}
	s.Run()
	if got != 0b11 {
		t.Fatalf("SNR accumulated %#b, want 0b11", got)
	}
}

func TestTrySignalNonBlocking(t *testing.T) {
	s := New(DefaultConfig())
	var empty, full bool
	var v uint32
	s.SPEs[0].Run("k", func(ctx *spe.Context) {
		_, ok := ctx.TrySignal(1)
		empty = !ok
		ctx.Signal(s.SignalEA(0, 1), 42, 0) // signal self via the fabric
		ctx.WaitTag(0)
		v, full = ctx.TrySignal(1)
	})
	s.Run()
	if !empty || !full || v != 42 {
		t.Fatalf("TrySignal empty=%v full=%v v=%d", empty, full, v)
	}
}

func TestConfigClone(t *testing.T) {
	orig := DefaultConfig()
	orig.Layout = RandomLayout(3)
	orig.FaultSeed = 42

	c := orig.Clone()
	if !reflect.DeepEqual(c, orig) {
		t.Fatalf("clone differs from original:\n%+v\n%+v", c, orig)
	}
	// Layout is the config's only reference field; the clone must own its
	// own backing array so mutating one side never shows through the other.
	c.Layout[0], c.Layout[1] = c.Layout[1], c.Layout[0]
	if reflect.DeepEqual(c.Layout, orig.Layout) {
		t.Fatal("clone shares its Layout backing array with the original")
	}
	if n := (Config{}).Clone(); n.Layout != nil {
		t.Fatalf("cloning a nil Layout produced %v, want nil", n.Layout)
	}
}
