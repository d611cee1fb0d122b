package ppe

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
)

// fakeMem is a MemoryPort with fixed latency and a simple service rate.
type fakeMem struct {
	eng     *sim.Engine
	latency sim.Time
	srv     *sim.Server
	reads   int64
	writes  int64
}

func newFakeMem(eng *sim.Engine, latency sim.Time) *fakeMem {
	return &fakeMem{eng: eng, latency: latency, srv: sim.NewServer(eng)}
}

func (f *fakeMem) ReadLine(addr int64, earliest sim.Time, done sim.Callee) {
	f.reads++
	f.srv.Request(16, sim.CalleeFunc(func(sim.Time) {
		end := f.eng.Now() + f.latency
		f.eng.AtCallee(end, done, end)
	}))
}

func (f *fakeMem) WriteLine(addr int64, earliest sim.Time, done sim.Callee) {
	f.writes++
	f.srv.Request(16, sim.CalleeFunc(func(sim.Time) { done.Call(f.eng.Now()) }))
}

func newPPE(latency sim.Time) (*sim.Engine, *fakeMem, *PPE) {
	eng := sim.NewEngine()
	mem := newFakeMem(eng, latency)
	return eng, mem, New(eng, mem, DefaultConfig())
}

// gbps converts bytes moved in cycles at 2.1 GHz to GB/s.
func gbps(bytes int64, cycles sim.Time) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) * 2.1 / float64(cycles)
}

// laps runs passes on thread id and returns the cycle each pass ended
// at, followed by the thread's retirement cycle, once the engine runs.
func laps(p *PPE, id int, passes ...Pass) []sim.Time {
	at := make([]sim.Time, len(passes)+1)
	p.Run(id, passes, func(pass int, t sim.Time) { at[pass] = t })
	return at
}

// runStream runs a warmed-up stream kernel on one thread and returns the
// bandwidth of the timed pass, store-queue drain included, in GB/s.
func runStream(t *testing.T, op Op, bufBytes int64, elem int, latency sim.Time) float64 {
	t.Helper()
	eng, _, p := newPPE(latency)
	pass := Pass{Op: op, Src: 0, Dst: 1 << 24, Bytes: bufBytes, Elem: elem}
	at := laps(p, 0, pass, pass) // warm-up lap, timed lap
	eng.Run()
	cycles := at[2] - at[0]
	bytes := bufBytes
	if op == Copy {
		bytes *= 2
	}
	return gbps(bytes, cycles)
}

func TestCacheArrayBasics(t *testing.T) {
	c := newCacheArray(1024, 128, 2) // 4 sets, 2 ways
	if c.Lookup(0) {
		t.Fatal("empty cache must miss")
	}
	c.Insert(0, false)
	if !c.Lookup(0) || !c.Lookup(64) {
		t.Fatal("same line must hit at any offset")
	}
	if c.Lookup(128) {
		t.Fatal("different line must miss")
	}
}

func TestCacheArrayLRUEviction(t *testing.T) {
	c := newCacheArray(1024, 128, 2) // sets of 2 ways; set = line%4
	// Three lines in set 0: 0, 512, 1024 (lines 0, 4, 8).
	c.Insert(0, false)
	c.Insert(512, true)
	c.Lookup(0) // make line 0 most recent
	ev, dirty, has := c.Insert(1024, false)
	if !has || ev != 512 || !dirty {
		t.Fatalf("evicted %d dirty=%v has=%v, want 512/dirty", ev, dirty, has)
	}
	if !c.Lookup(0) || !c.Lookup(1024) || c.Lookup(512) {
		t.Fatal("wrong lines resident after eviction")
	}
}

func TestCacheArrayMarkDirty(t *testing.T) {
	c := newCacheArray(1024, 128, 2)
	if c.MarkDirty(0) {
		t.Fatal("marking an absent line must fail")
	}
	c.Insert(0, false)
	if !c.MarkDirty(0) {
		t.Fatal("marking a present line must succeed")
	}
	c.Insert(512, false)
	ev, dirty, has := c.Insert(1024, false)
	if !has || ev != 0 || !dirty {
		t.Fatalf("dirty bit lost: evicted %d dirty=%v", ev, dirty)
	}
}

// Property: a cache with S sets and W ways never holds more than W lines
// of the same set, and inserting N <= W distinct same-set lines evicts
// nothing.
func TestCacheArrayCapacityProperty(t *testing.T) {
	f := func(n uint8) bool {
		c := newCacheArray(4096, 128, 4) // 8 sets, 4 ways
		k := int(n%4) + 1                // 1..4 same-set lines
		for i := 0; i < k; i++ {
			if _, _, has := c.Insert(int64(i)*128*8, false); has {
				return false
			}
		}
		for i := 0; i < k; i++ {
			if !c.Lookup(int64(i) * 128 * 8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestL1LoadBandwidthPlateau(t *testing.T) {
	// 16 KB buffer fits L1: pure issue-limited bandwidth, plateauing at
	// half peak (8.4 GB/s) from 8-byte elements down to 2.1 at 1 byte.
	want := map[int]float64{1: 2.1, 2: 4.2, 4: 8.4, 8: 8.4, 16: 8.4}
	for elem, w := range want {
		got := runStream(t, Load, 16<<10, elem, 400)
		if got < w*0.9 || got > w*1.1 {
			t.Errorf("L1 load %dB: %.2f GB/s, want ~%.1f", elem, got, w)
		}
	}
}

func TestL1StoreBelowLoad(t *testing.T) {
	load := runStream(t, Load, 16<<10, 16, 400)
	store := runStream(t, Store, 16<<10, 16, 400)
	if store >= load {
		t.Fatalf("16B store %.2f must be below load %.2f (drain-limited)", store, load)
	}
	if store < 3 {
		t.Fatalf("16B store %.2f unreasonably low", store)
	}
}

func TestL2LoadLatencyBound(t *testing.T) {
	// 256 KB buffer: fits L2, misses L1 every line. Bandwidth ~ line /
	// (issue + L2 latency).
	got := runStream(t, Load, 256<<10, 16, 400)
	cfg := DefaultConfig()
	want := gbps(LineBytes, cfg.L2HitLatency+cfg.LoadCost.C16*8)
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("L2 load %.2f GB/s, want ~%.2f", got, want)
	}
}

func TestMemLoadMatchesL2Load(t *testing.T) {
	// 4 MB buffer: misses L2, but the stream prefetcher hides memory
	// latency, so bandwidth must be close to the L2-resident case. This
	// is the paper's Figure 6 observation.
	l2 := runStream(t, Load, 256<<10, 8, 400)
	mem := runStream(t, Load, 4<<20, 8, 400)
	if mem < l2*0.75 {
		t.Fatalf("mem load %.2f GB/s, want close to L2 load %.2f", mem, l2)
	}
}

func TestPrefetcherIsWhatHidesMemoryLatency(t *testing.T) {
	run := func(depth int) float64 {
		eng := sim.NewEngine()
		mem := newFakeMem(eng, 400)
		cfg := DefaultConfig()
		cfg.PrefetchDepth = depth
		p := New(eng, mem, cfg)
		at := laps(p, 0, Pass{Op: Load, Bytes: 4 << 20, Elem: 8})
		eng.Run()
		return gbps(4<<20, at[0])
	}
	with := run(DefaultConfig().PrefetchDepth)
	without := run(0)
	if with < 2*without {
		t.Fatalf("prefetch on %.2f GB/s vs off %.2f: expected a large gain", with, without)
	}
}

func TestMemStoreRFOLimited(t *testing.T) {
	// Store misses must fetch lines with tiny concurrency: memory store
	// bandwidth is far below L2 store bandwidth.
	l2 := runStream(t, Store, 256<<10, 16, 400)
	mem := runStream(t, Store, 4<<20, 16, 400)
	if mem >= l2/2 {
		t.Fatalf("mem store %.2f GB/s vs L2 store %.2f: want < half", mem, l2)
	}
}

func TestTwoThreadsHelpL2(t *testing.T) {
	run := func(threads int) float64 {
		eng, _, p := newPPE(400)
		var at [][]sim.Time
		for th := 0; th < threads; th++ {
			pass := Pass{Op: Load, Src: int64(th) * (1 << 22), Bytes: 256 << 10, Elem: 8}
			at = append(at, laps(p, th, pass, pass)) // warm, timed
		}
		eng.Run()
		var total sim.Time
		for _, a := range at {
			total = max(total, a[1]-a[0])
		}
		return gbps(int64(threads)*(256<<10), total)
	}
	one := run(1)
	two := run(2)
	if two < one*1.5 {
		t.Fatalf("2 threads %.2f GB/s vs 1 thread %.2f: SMT must overlap L2 stalls", two, one)
	}
}

func TestSMTSharesIssueOnL1(t *testing.T) {
	// L1-resident loads are issue-limited: two threads split the issue
	// slots, so the aggregate stays ~the same as one thread.
	run := func(threads int) float64 {
		eng, _, p := newPPE(400)
		var at [][]sim.Time
		for th := 0; th < threads; th++ {
			passes := make([]Pass, 9) // a warm-up (both fit L1), then 8 timed
			for i := range passes {
				passes[i] = Pass{Op: Load, Src: int64(th) * (1 << 22), Bytes: 8 << 10, Elem: 8}
			}
			at = append(at, laps(p, th, passes...))
		}
		eng.Run()
		var slowest sim.Time
		for _, a := range at {
			slowest = max(slowest, a[8]-a[0])
		}
		return gbps(int64(threads)*8*(8<<10), slowest)
	}
	one := run(1)
	two := run(2)
	if two > one*1.25 || two < one*0.75 {
		t.Fatalf("L1 loads: 2 threads %.2f GB/s vs 1 thread %.2f: want about equal", two, one)
	}
}

func TestStoreQueueStallsWhenFull(t *testing.T) {
	// With a huge drain time, the store stream must be drain-limited,
	// not issue-limited.
	eng := sim.NewEngine()
	mem := newFakeMem(eng, 50)
	cfg := DefaultConfig()
	cfg.StoreDrainCycles = 100
	p := New(eng, mem, cfg)
	pass := Pass{Op: Store, Bytes: 16 << 10, Elem: 16}
	at := laps(p, 0, pass, pass) // warm L2, timed
	eng.Run()
	cycles := at[2] - at[0] // store-queue drain included
	chunks := sim.Time(16 << 10 / 16)
	if cycles < chunks*100 {
		t.Fatalf("store stream took %d cycles, want >= %d (drain-limited)", cycles, chunks*100)
	}
}

func TestWritebacksHappen(t *testing.T) {
	eng, mem, p := newPPE(100)
	// Dirty 2 MB of lines, then stream another 2 MB to force evictions of
	// dirty lines.
	p.Run(0, []Pass{{Op: Store, Bytes: 2 << 20, Elem: 16}, {Op: Load, Src: 8 << 20, Bytes: 2 << 20, Elem: 16}}, nil)
	eng.Run()
	if mem.writes == 0 || p.Stats().Writebacks == 0 {
		t.Fatal("dirty evictions must write back to memory")
	}
}

func TestStatsCount(t *testing.T) {
	eng, _, p := newPPE(100)
	p.Run(0, []Pass{{Op: Load, Bytes: 1 << 13, Elem: 8}}, nil)
	eng.Run()
	st := p.Stats()
	if st.Loads != (1<<13)/8 {
		t.Fatalf("loads %d, want %d", st.Loads, (1<<13)/8)
	}
	if st.L1Misses != (1<<13)/128 {
		t.Fatalf("l1 misses %d, want %d", st.L1Misses, (1<<13)/128)
	}
}

func TestBadThreadIDPanics(t *testing.T) {
	_, _, p := newPPE(100)
	defer func() {
		if recover() == nil {
			t.Fatal("bad thread id should panic")
		}
	}()
	p.Run(2, nil, nil)
}

func TestUnalignedStreamPanics(t *testing.T) {
	_, _, p := newPPE(100)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned stream should panic")
		}
	}()
	p.Run(0, []Pass{{Op: Load, Src: 64, Bytes: 1 << 13, Elem: 8}}, nil)
}

// stuckMem is a MemoryPort that never completes an access.
type stuckMem struct{}

func (stuckMem) ReadLine(int64, sim.Time, sim.Callee)  {}
func (stuckMem) WriteLine(int64, sim.Time, sim.Callee) {}

// TestPPEDeadlockNamesStuckThread: a thread parked on a fill that never
// arrives is invisible to the process registry, so the PPE's liveness
// reporter must name it when the event queue drains.
func TestPPEDeadlockNamesStuckThread(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, stuckMem{}, DefaultConfig())
	p.Run(1, []Pass{{Op: Load, Bytes: 1 << 13, Elem: 8}}, nil)
	err := eng.RunChecked(0)
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *sim.DeadlockError, got %v", err)
	}
	if len(de.Stuck) != 1 || de.Stuck[0] != "ppe1" {
		t.Fatalf("stuck actors %v, want [ppe1]", de.Stuck)
	}
}

// TestPPEResetMidRunReplays cuts a two-thread copy short with fills in
// flight and both threads parked, then resets the engine and the PPE and
// reruns it, twice: the recycled thread and fill records must replay a
// fresh PPE's run event for event.
func TestPPEResetMidRunReplays(t *testing.T) {
	start := func(p *PPE) *[2][]sim.Time {
		var at [2][]sim.Time
		for th := 0; th < 2; th++ {
			pass := Pass{Op: Copy, Src: int64(th) << 22, Dst: int64(th)<<22 + 1<<21, Bytes: 64 << 10, Elem: 8}
			at[th] = laps(p, th, pass, pass)
		}
		return &at
	}
	run := func(eng *sim.Engine, p *PPE) string {
		at := start(p)
		if err := eng.RunChecked(0); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("now=%d fired=%d laps=%v stats=%+v", eng.Now(), eng.Fired(), *at, p.Stats())
	}
	eng, _, p := newPPE(400)
	want := run(eng, p)

	eng, _, p = newPPE(400)
	start(p)
	if err := eng.RunChecked(20000); err == nil || p.InflightFills() == 0 {
		t.Fatalf("the cut run must stop with fills in flight: err %v, %d fills", err, p.InflightFills())
	}
	for i := 0; i < 2; i++ {
		eng.Reset()
		p.Reset(newFakeMem(eng, 400), DefaultConfig())
		p.SetPerf(new(perfctr.PPECounters))
		if got := run(eng, p); got != want {
			t.Fatalf("rerun %d on a reset PPE diverged\n got: %s\nwant: %s", i, got, want)
		}
	}
}
