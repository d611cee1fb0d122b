package cellbe

// The EIB scheduler is performance-optimized (precomputed path tables, a
// cursor-based reservation timeline, an allocation-free event heap), and
// every optimization must be *observationally* invisible: the discrete-
// event model is required to produce cycle-for-cycle identical results.
// These goldens were captured from the seed (pre-optimization)
// implementation at fixed layout seeds; any divergence means the
// optimized scheduler changed simulated behavior, not just speed.

import (
	"fmt"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/ppe"
	"cellbe/internal/sim"
)

// determinismSignature runs a scenario at a fixed layout seed and folds
// the end time and the full EIB statistics into a comparable string.
func determinismSignature(t *testing.T, sc cell.Scenario, seed int64) string {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.Layout = cell.RandomLayout(seed)
	sys := cell.New(cfg)
	if _, err := sc.Install(sys); err != nil {
		t.Fatalf("install %s: %v", sc.Kind, err)
	}
	sys.Run()
	st := sys.Bus.Stats()
	return fmt.Sprintf("now=%d transfers=%d local=%d bytes=%d cmds=%d busy=%v wait=%d rampBytes=%v dir=%v",
		sys.Eng.Now(), st.Transfers, st.LocalTransfers, st.Bytes, st.Commands,
		st.BusyCycles, st.WaitCycles, st.PerRampBytes, st.PerDirCount)
}

func TestSchedulerDeterminism(t *testing.T) {
	const volume = 1 << 20
	cases := []struct {
		name   string
		sc     cell.Scenario
		seed   int64
		golden string
	}{
		{
			name:   "pair",
			sc:     cell.Scenario{Kind: "pair", SPEs: 2, Chunk: 4096, Volume: volume},
			seed:   3,
			golden: "now=134384 transfers=16384 local=0 bytes=2097152 cmds=16384 busy=[131072 0 131072 0] wait=886971 rampBytes=[0 0 0 0 0 0 0 1048576 0 1048576 0 0] dir=[8192 8192]",
		},
		{
			name:   "couples",
			sc:     cell.Scenario{Kind: "couples", SPEs: 8, Chunk: 4096, Volume: volume},
			seed:   3,
			golden: "now=170414 transfers=65536 local=0 bytes=8388608 cmds=65536 busy=[396720 127568 397168 127120] wait=111650 rampBytes=[0 1048576 1048576 1048576 1048576 0 0 1048576 1048576 1048576 1048576 0] dir=[32768 32768]",
		},
		{
			name:   "cycle",
			sc:     cell.Scenario{Kind: "cycle", SPEs: 8, Chunk: 4096, Volume: volume},
			seed:   3,
			golden: "now=468758 transfers=131072 local=0 bytes=16777216 cmds=131072 busy=[684800 363776 690336 358240] wait=39889818 rampBytes=[0 2097152 2097152 2097152 2097152 0 0 2097152 2097152 2097152 2097152 0] dir=[65536 65536]",
		},
		{
			name:   "mem",
			sc:     cell.Scenario{Kind: "mem", SPEs: 4, Chunk: 16384, Volume: volume, Op: "get"},
			seed:   3,
			golden: "now=381396 transfers=32768 local=0 bytes=4194304 cmds=32768 busy=[162544 42256 200400 119088] wait=5703795 rampBytes=[0 0 0 0 0 0 1245184 0 0 0 0 2949120] dir=[12800 19968]",
		},
		// The four workload presets run on the pattern interpreter; their
		// address streams (seeded-random GUPS slots, the QCD halo ring, the
		// MD gather/scatter) add randomness sources of their own, all of
		// which must fold into the same reproducibility contract.
		{
			name:   "gups",
			sc:     cell.Scenario{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 128 << 10, Op: "both"},
			seed:   3,
			golden: "now=403244 transfers=32768 local=0 bytes=2097152 cmds=32768 busy=[82504 48568 81744 49328] wait=209045 rampBytes=[0 131072 131072 131072 131072 0 314432 131072 131072 131072 131072 734144] dir=[16384 16384]",
		},
		{
			name:   "qcd",
			sc:     cell.Scenario{Kind: "qcd", SPEs: 8, Chunk: 4096, Volume: volume},
			seed:   3,
			golden: "now=1717138 transfers=133120 local=0 bytes=17039360 cmds=133120 busy=[823744 233024 833712 239440] wait=12633082 rampBytes=[0 1081344 1081344 1081344 1081344 0 2490368 1081344 1081344 1081344 1081344 5898240] dir=[66048 67072]",
		},
		{
			name:   "md",
			sc:     cell.Scenario{Kind: "md", SPEs: 8, Chunk: 512, Volume: volume},
			seed:   3,
			golden: "now=883020 transfers=65536 local=0 bytes=8388608 cmds=65536 busy=[313232 210608 313648 211088] wait=15626098 rampBytes=[0 524288 524288 524288 524288 0 1244160 524288 524288 524288 524288 2950144] dir=[32740 32796]",
		},
		{
			name:   "stream",
			sc:     cell.Scenario{Kind: "stream", SPEs: 8, Chunk: 16384, Volume: volume, Op: "triad"},
			seed:   3,
			golden: "now=2394336 transfers=196608 local=0 bytes=25165824 cmds=196608 busy=[989232 583632 1006736 566128] wait=11040159 rampBytes=[0 1048576 1048576 1048576 1048576 0 4980736 1048576 1048576 1048576 1048576 11796480] dir=[98304 98304]",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := determinismSignature(t, tc.sc, tc.seed)
			if got != tc.golden {
				t.Errorf("scheduler diverged from seed implementation\n got: %s\nwant: %s", got, tc.golden)
			}
		})
	}
}

// TestSchedulerDeterminismRepeatable guards against accidental map
// iteration or pointer-order dependence: the same scenario must produce
// the same signature on back-to-back runs within one process.
func TestSchedulerDeterminismRepeatable(t *testing.T) {
	sc := cell.Scenario{Kind: "cycle", SPEs: 8, Chunk: 4096, Volume: 1 << 18}
	a := determinismSignature(t, sc, 7)
	b := determinismSignature(t, sc, 7)
	if a != b {
		t.Fatalf("back-to-back runs diverged:\n%s\n%s", a, b)
	}
}

// ppeCase is one PPE run of TestPPEDeterminism: op on threads SMT threads
// over private buf-byte buffers, passes passes each (the first a warm-up),
// on a PPE configured by tweak.
type ppeCase struct {
	name    string
	op      ppe.Op
	threads int
	buf     int64
	elem    int
	passes  int
	tweak   func(*ppe.Config)
	golden  string
}

// ppeSignature runs c on a fresh system and folds the end time, the
// events fired, every pass's end (thread:pass@cycle, in the order they
// happened) and the PPE counters into a comparable string.
func ppeSignature(t *testing.T, c ppeCase) string {
	t.Helper()
	cfg := cell.DefaultConfig()
	if c.tweak != nil {
		c.tweak(&cfg.PPE)
	}
	sys := cell.New(cfg)
	var laps []string
	for th := 0; th < c.threads; th++ {
		src, dst := sys.Alloc(c.buf, 128), sys.Alloc(c.buf, 128)
		passes := make([]ppe.Pass, c.passes)
		for i := range passes {
			passes[i] = ppe.Pass{Op: c.op, Src: src, Dst: dst, Bytes: c.buf, Elem: c.elem}
		}
		sys.PPE.Run(th, passes, func(pass int, at sim.Time) {
			if pass < c.passes {
				laps = append(laps, fmt.Sprintf("%d:%d@%d", th, pass, at))
			}
		})
	}
	if err := sys.RunChecked(0); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return fmt.Sprintf("now=%d fired=%d laps=%v stats=%+v",
		sys.Eng.Now(), sys.Eng.Fired(), laps, sys.PPE.Stats())
}

// TestPPEDeterminism pins the PPE model's event stream: load, store and
// copy on one and two threads over L1-, L2- and memory-sized buffers,
// plus runs without the prefetcher and with a one-line RFO window. Any
// change to how threads are driven must fire the same events at the same
// cycles.
func TestPPEDeterminism(t *testing.T) {
	noPrefetch := func(c *ppe.Config) { c.PrefetchDepth = 0 }
	rfo1 := func(c *ppe.Config) { c.RFOWindow = 1 }
	cases := []ppeCase{
		{name: "load-1t-l1", op: ppe.Load, threads: 1, buf: 16 << 10, elem: 8, passes: 3,
			golden: "now=25844 fired=923 laps=[0:0@17652 0:1@21748 0:2@25844] stats={Loads:6144 Stores:0 L1Misses:128 L2Misses:136 Prefetches:135 RFOs:0 Writebacks:0 StoreChunks:0}"},
		{name: "store-2t-l1", op: ppe.Store, threads: 2, buf: 8 << 10, elem: 16, passes: 3,
			golden: "now=18161 fired=1292 laps=[0:0@8602 1:0@8618 0:1@13240 1:1@13277 0:2@17976 1:2@18013] stats={Loads:0 Stores:3072 L1Misses:0 L2Misses:128 Prefetches:0 RFOs:128 Writebacks:0 StoreChunks:3072}"},
		{name: "copy-1t-l1", op: ppe.Copy, threads: 1, buf: 8 << 10, elem: 1, passes: 2,
			golden: "now=39740 fired=580 laps=[0:0@23316 0:1@39700] stats={Loads:16384 Stores:16384 L1Misses:64 L2Misses:128 Prefetches:63 RFOs:64 Writebacks:0 StoreChunks:1024}"},
		{name: "load-2t-l2", op: ppe.Load, threads: 2, buf: 128 << 10, elem: 8, passes: 2,
			golden: "now=336882 fired=14391 laps=[0:0@168660 1:0@168978 0:1@336596 1:1@336882] stats={Loads:65536 Stores:0 L1Misses:4096 L2Misses:2064 Prefetches:2061 RFOs:0 Writebacks:0 StoreChunks:0}"},
		{name: "store-1t-l2", op: ppe.Store, threads: 1, buf: 128 << 10, elem: 16, passes: 2,
			golden: "now=168546 fired=7503 laps=[0:0@127538 0:1@168466] stats={Loads:0 Stores:16384 L1Misses:0 L2Misses:1024 Prefetches:0 RFOs:1024 Writebacks:0 StoreChunks:16384}"},
		{name: "copy-2t-l2", op: ppe.Copy, threads: 2, buf: 64 << 10, elem: 8, passes: 2,
			golden: "now=280125 fired=10435 laps=[0:0@133878 1:0@152725 0:1@266998 1:1@280085] stats={Loads:32768 Stores:32768 L1Misses:2048 L2Misses:2048 Prefetches:1021 RFOs:1024 Writebacks:0 StoreChunks:16384}"},
		{name: "load-1t-mem", op: ppe.Load, threads: 1, buf: 1 << 20, elem: 16, passes: 2,
			golden: "now=2164816 fired=81973 laps=[0:0@1082100 0:1@2164200] stats={Loads:131072 Stores:0 L1Misses:16384 L2Misses:16400 Prefetches:16398 RFOs:0 Writebacks:0 StoreChunks:0}"},
		{name: "store-2t-mem", op: ppe.Store, threads: 2, buf: 512 << 10, elem: 8, passes: 2,
			golden: "now=1495706 fired=122810 laps=[0:0@700429 1:0@749251 0:1@1402565 1:1@1495190] stats={Loads:0 Stores:262144 L1Misses:0 L2Misses:16384 Prefetches:0 RFOs:16384 Writebacks:12288 StoreChunks:131072}"},
		{name: "copy-1t-mem", op: ppe.Copy, threads: 1, buf: 512 << 10, elem: 16, passes: 2,
			golden: "now=1617511 fired=93390 laps=[0:0@807906 0:1@1616855] stats={Loads:65536 Stores:65536 L1Misses:8192 L2Misses:16392 Prefetches:8206 RFOs:8184 Writebacks:6144 StoreChunks:65536}"},
		{name: "load-2t-mem-noprefetch", op: ppe.Load, threads: 2, buf: 512 << 10, elem: 8, passes: 2, tweak: noPrefetch,
			golden: "now=4373919 fired=98306 laps=[0:0@2047585 1:0@2193167 0:1@4095725 1:1@4373919] stats={Loads:262144 Stores:0 L1Misses:16384 L2Misses:16384 Prefetches:0 RFOs:0 Writebacks:0 StoreChunks:0}"},
		{name: "copy-2t-mem-rfo1", op: ppe.Copy, threads: 2, buf: 512 << 10, elem: 16, passes: 2, tweak: rfo1,
			golden: "now=2695822 fired=198559 laps=[0:0@1346113 1:0@1347676 0:1@2693094 1:1@2695024] stats={Loads:131072 Stores:131072 L1Misses:16384 L2Misses:32784 Prefetches:16411 RFOs:16368 Writebacks:14344 StoreChunks:131072}"},
		{name: "store-1t-l2-noprefetch-rfo1", op: ppe.Store, threads: 1, buf: 128 << 10, elem: 8, passes: 2,
			tweak:  func(c *ppe.Config) { noPrefetch(c); rfo1(c) },
			golden: "now=249096 fired=5634 laps=[0:0@199904 0:1@249056] stats={Loads:0 Stores:32768 L1Misses:0 L2Misses:1024 Prefetches:0 RFOs:1024 Writebacks:0 StoreChunks:16384}"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if got := ppeSignature(t, c); got != c.golden {
				t.Errorf("PPE run diverged\n got: %s\nwant: %s", got, c.golden)
			}
		})
	}
}
