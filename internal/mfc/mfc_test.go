package mfc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"cellbe/internal/sim"
)

// fakeFabric is a Fabric with fixed per-line latency and unlimited
// concurrency, backed by a flat byte array.
type fakeFabric struct {
	eng     *sim.Engine
	mem     []byte
	latency sim.Time
	reads   int64
	writes  int64
	// inflight tracks concurrent operations to verify windowing.
	inflight    int
	maxInflight int
}

func (f *fakeFabric) track(delta int) {
	f.inflight += delta
	if f.inflight > f.maxInflight {
		f.maxInflight = f.inflight
	}
}

func (f *fakeFabric) ReadEA(ea int64, n int, earliest sim.Time, dst []byte, done sim.Callee) {
	f.reads++
	start := earliest
	if now := f.eng.Now(); start < now {
		start = now
	}
	f.track(1)
	end := start + f.latency
	f.eng.At(end, func() {
		copy(dst, f.mem[ea:ea+int64(n)])
		f.track(-1)
		done.Call(end)
	})
}

func (f *fakeFabric) WriteEA(ea int64, n int, earliest sim.Time, src []byte, done sim.Callee) {
	f.writes++
	start := earliest
	if now := f.eng.Now(); start < now {
		start = now
	}
	f.track(1)
	end := start + f.latency
	f.eng.At(end, func() {
		copy(f.mem[ea:ea+int64(n)], src)
		f.track(-1)
		done.Call(end)
	})
}

func newMFC(latency sim.Time) (*sim.Engine, *fakeFabric, *MFC, []byte) {
	eng := sim.NewEngine()
	fab := &fakeFabric{eng: eng, mem: make([]byte, 1<<20), latency: latency}
	ls := make([]byte, 256<<10)
	m := New(eng, fab, ls, DefaultConfig())
	return eng, fab, m, ls
}

func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*7)
	}
}

func TestGetMovesData(t *testing.T) {
	eng, fab, m, ls := newMFC(100)
	fill(fab.mem[4096:4096+1024], 3)
	done := false
	err := m.Enqueue(Cmd{Kind: Get, Tag: 1, LSAddr: 0, EA: 4096, Size: 1024}, sim.CalleeFunc(func(sim.Time) { done = true }))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Fatal("command did not complete")
	}
	if !bytes.Equal(ls[:1024], fab.mem[4096:4096+1024]) {
		t.Fatal("GET payload mismatch")
	}
	if m.tagCount[1] != 0 {
		t.Fatal("tag group must be idle after completion")
	}
}

func TestPutMovesData(t *testing.T) {
	eng, fab, m, ls := newMFC(100)
	fill(ls[512:512+256], 9)
	err := m.Enqueue(Cmd{Kind: Put, Tag: 0, LSAddr: 512, EA: 8192, Size: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(fab.mem[8192:8192+256], ls[512:512+256]) {
		t.Fatal("PUT payload mismatch")
	}
	if fab.writes != 2 {
		t.Fatalf("256B put should issue 2 line packets, got %d", fab.writes)
	}
}

func TestPacketSplitRespectsLines(t *testing.T) {
	eng, fab, m, _ := newMFC(10)
	// 16-byte aligned but not line aligned: 0x...70 + 160 bytes crosses
	// two line boundaries -> packets of 16, 128, 16.
	err := m.Enqueue(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: 0x70, Size: 160}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if fab.reads != 3 {
		t.Fatalf("unaligned 160B get should issue 3 packets, got %d", fab.reads)
	}
	st := m.Stats()
	if st.Bytes != 160 {
		t.Fatalf("bytes %d, want 160", st.Bytes)
	}
}

func TestWindowBoundsOutstanding(t *testing.T) {
	eng, fab, m, _ := newMFC(10_000) // long latency: window fills
	err := m.Enqueue(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: 0, Size: 16384}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if fab.maxInflight != DefaultConfig().Window {
		t.Fatalf("max inflight %d, want window %d", fab.maxInflight, DefaultConfig().Window)
	}
}

func TestListWindowSmaller(t *testing.T) {
	eng, fab, m, _ := newMFC(10_000)
	list := make([]ListElem, 16)
	for i := range list {
		list[i] = ListElem{EA: int64(i * 1024), Size: 1024}
	}
	err := m.Enqueue(Cmd{Kind: GetList, Tag: 0, LSAddr: 0, List: list}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if fab.maxInflight != DefaultConfig().ListWindow {
		t.Fatalf("max inflight %d, want list window %d", fab.maxInflight, DefaultConfig().ListWindow)
	}
}

func TestListMovesAllElements(t *testing.T) {
	eng, fab, m, ls := newMFC(50)
	list := []ListElem{{EA: 0, Size: 128}, {EA: 4096, Size: 256}, {EA: 9216, Size: 16}}
	fill(fab.mem[0:128], 1)
	fill(fab.mem[4096:4096+256], 2)
	fill(fab.mem[9216:9216+16], 3)
	err := m.Enqueue(Cmd{Kind: GetList, Tag: 2, LSAddr: 1024, List: list}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(ls[1024:1024+128], fab.mem[0:128]) ||
		!bytes.Equal(ls[1024+128:1024+384], fab.mem[4096:4096+256]) ||
		!bytes.Equal(ls[1024+384:1024+400], fab.mem[9216:9216+16]) {
		t.Fatal("GETL payload mismatch")
	}
	if m.Stats().ListElements != 3 {
		t.Fatalf("list elements %d, want 3", m.Stats().ListElements)
	}
}

func TestQueueFull(t *testing.T) {
	_, _, m, _ := newMFC(1_000_000)
	for i := 0; i < DefaultConfig().QueueDepth; i++ {
		if err := m.Enqueue(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: 0, Size: 128}, nil); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	err := m.Enqueue(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: 0, Size: 128}, nil)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("17th enqueue: %v, want ErrQueueFull", err)
	}
}

func TestOnSpaceFires(t *testing.T) {
	eng, _, m, _ := newMFC(100)
	for i := 0; i < DefaultConfig().QueueDepth; i++ {
		m.Enqueue(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: 0, Size: 128}, nil)
	}
	freed := false
	m.OnSpace(sim.CalleeFunc(func(sim.Time) { freed = true }))
	eng.Run()
	if !freed {
		t.Fatal("OnSpace never fired")
	}
}

func TestWaitTagsMask(t *testing.T) {
	eng, _, m, _ := newMFC(100)
	var order []int
	m.Enqueue(Cmd{Kind: Get, Tag: 3, LSAddr: 0, EA: 0, Size: 16384}, nil)
	m.Enqueue(Cmd{Kind: Get, Tag: 5, LSAddr: 16384, EA: 16384, Size: 128}, nil)
	m.WaitTags(1<<5, sim.CalleeFunc(func(sim.Time) { order = append(order, 5) }))
	m.WaitTags(1<<3|1<<5, sim.CalleeFunc(func(sim.Time) { order = append(order, 35) }))
	eng.Run()
	if len(order) != 2 || order[0] != 5 || order[1] != 35 {
		t.Fatalf("wait order %v, want [5 35]", order)
	}
	// Waiting on idle tags fires immediately.
	fired := false
	m.WaitTags(1<<7, sim.CalleeFunc(func(sim.Time) { fired = true }))
	eng.Run()
	if !fired {
		t.Fatal("wait on idle tag must fire")
	}
}

func TestBarrierOrdersAllPrior(t *testing.T) {
	eng, fab, m, ls := newMFC(200)
	// PUT 128 bytes of A, then barriered PUT of B to the same address:
	// B must land after A despite both being in flight together.
	fill(ls[0:128], 1)
	fill(ls[128:256], 2)
	m.Enqueue(Cmd{Kind: Put, Tag: 0, LSAddr: 0, EA: 0, Size: 128}, nil)
	m.Enqueue(Cmd{Kind: Put, Tag: 1, LSAddr: 128, EA: 0, Size: 128, Barrier: true}, nil)
	eng.Run()
	if !bytes.Equal(fab.mem[0:128], ls[128:256]) {
		t.Fatal("barriered PUT must be ordered after the prior PUT")
	}
}

func TestFenceOrdersSameTagOnly(t *testing.T) {
	eng, _, m, _ := newMFC(500)
	var completions []int
	// Tag 1: slow big GET. Tag 2: fenced GET (does not wait for tag 1).
	m.Enqueue(Cmd{Kind: Get, Tag: 1, LSAddr: 0, EA: 0, Size: 16384}, sim.CalleeFunc(func(sim.Time) { completions = append(completions, 1) }))
	m.Enqueue(Cmd{Kind: Get, Tag: 2, LSAddr: 16384, EA: 16384, Size: 128, Fence: true}, sim.CalleeFunc(func(sim.Time) { completions = append(completions, 2) }))
	eng.Run()
	if len(completions) != 2 || completions[0] != 2 {
		t.Fatalf("fenced other-tag command should finish first: %v", completions)
	}

	// Same tag: the fence must hold it back.
	completions = nil
	m.Enqueue(Cmd{Kind: Get, Tag: 1, LSAddr: 0, EA: 0, Size: 16384}, sim.CalleeFunc(func(sim.Time) { completions = append(completions, 1) }))
	m.Enqueue(Cmd{Kind: Get, Tag: 1, LSAddr: 16384, EA: 16384, Size: 128, Fence: true}, sim.CalleeFunc(func(sim.Time) { completions = append(completions, 2) }))
	eng.Run()
	if len(completions) != 2 || completions[0] != 1 {
		t.Fatalf("fenced same-tag command must wait: %v", completions)
	}
}

func TestValidation(t *testing.T) {
	_, _, m, _ := newMFC(10)
	bad := []Cmd{
		{Kind: Get, Tag: -1, Size: 128},
		{Kind: Get, Tag: 32, Size: 128},
		{Kind: Get, Tag: 0, Size: 0},
		{Kind: Get, Tag: 0, Size: MaxTransfer + 16},
		{Kind: Get, Tag: 0, Size: 3},                         // not a power of two
		{Kind: Get, Tag: 0, Size: 24},                        // not multiple of 16
		{Kind: Get, Tag: 0, Size: 4, EA: 2},                  // misaligned small
		{Kind: Get, Tag: 0, Size: 128, EA: 8},                // misaligned big
		{Kind: Get, Tag: 0, Size: 128, LSAddr: 8},            // misaligned LS
		{Kind: Get, Tag: 0, Size: 128, LSAddr: 256<<10 - 64}, // LS overflow
		{Kind: Get, Tag: 0, Size: 128, Fence: true, Barrier: true},
		{Kind: GetList, Tag: 0}, // empty list
		{Kind: GetList, Tag: 0, List: make([]ListElem, MaxListElements+1)},
		{Kind: GetList, Tag: 0, List: []ListElem{{EA: 0, Size: 24}}},
	}
	for i, c := range bad {
		if err := m.Enqueue(c, nil); !errors.Is(err, ErrBadCommand) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadCommand", i, c, err)
		}
	}
	ok := []Cmd{
		{Kind: Get, Tag: 0, Size: 1, EA: 77, LSAddr: 1},
		{Kind: Get, Tag: 31, Size: 8, EA: 64, LSAddr: 8},
		{Kind: Put, Tag: 0, Size: MaxTransfer, EA: 16384, LSAddr: 0},
	}
	for i, c := range ok {
		if err := m.Enqueue(c, nil); err != nil {
			t.Errorf("good case %d: %v", i, err)
		}
	}
}

func TestProxyQueueIndependent(t *testing.T) {
	eng, fab, m, ls := newMFC(100)
	fill(fab.mem[0:128], 7)
	done := false
	if err := m.EnqueueProxy(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: 0, Size: 128}, sim.CalleeFunc(func(sim.Time) { done = true })); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done || !bytes.Equal(ls[0:128], fab.mem[0:128]) {
		t.Fatal("proxy GET failed")
	}
	// Proxy queue has its own depth.
	for i := 0; i < DefaultConfig().ProxyDepth; i++ {
		if err := m.EnqueueProxy(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: 0, Size: 16384}, nil); err != nil {
			t.Fatalf("proxy enqueue %d: %v", i, err)
		}
	}
	if err := m.EnqueueProxy(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: 0, Size: 128}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("proxy overflow: %v, want ErrQueueFull", err)
	}
}

// Property: any valid element GET round-trips its payload exactly,
// regardless of size/alignment combination.
func TestGetRoundTripProperty(t *testing.T) {
	f := func(sizeSel uint8, lineOff uint8) bool {
		sizes := []int{1, 2, 4, 8, 16, 32, 48, 64, 128, 256, 1024, 2048, 16384}
		size := sizes[int(sizeSel)%len(sizes)]
		// EA offset: any multiple of size (small) or 16 (big).
		align := size
		if size >= 16 {
			align = 16
		}
		ea := int64(lineOff%8) * int64(align)
		eng, fab, m, ls := newMFC(37)
		fill(fab.mem[ea:ea+int64(size)], byte(sizeSel))
		err := m.Enqueue(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: ea, Size: size}, nil)
		if err != nil {
			return false
		}
		eng.Run()
		return bytes.Equal(ls[:size], fab.mem[ea:ea+int64(size)])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Throughput sanity: with near-zero latency, a big GET is paced by the
// issue interval (one packet per bus cycle), so 16 KB takes ~128 * 2
// cycles.
func TestIssuePacing(t *testing.T) {
	eng, _, m, _ := newMFC(1)
	m.Enqueue(Cmd{Kind: Get, Tag: 0, LSAddr: 0, EA: 0, Size: 16384}, nil)
	eng.Run()
	cfg := DefaultConfig()
	// Last of 128 packets issues at setup + 127*interval; +1 cycle fabric
	// latency for its completion.
	min := cfg.SetupCycles + 127*cfg.IssueInterval
	if got := eng.Now(); got < min || got > min+64 {
		t.Fatalf("16KB issue took %d cycles, want about %d", got, min)
	}
}

func TestPerCommandSetupCostDominatesSmall(t *testing.T) {
	// 128 commands of 128B must take ~128 * setup; one 16KB command must
	// be much faster. This is the paper's DMA-elem degradation below 1KB.
	run := func(n, size int) sim.Time {
		eng, _, m, _ := newMFC(1)
		issued := 0
		var next sim.CalleeFunc
		next = func(sim.Time) {
			for issued < n {
				err := m.Enqueue(Cmd{Kind: Get, Tag: 0, LSAddr: issued * size % (1 << 18), EA: int64(issued * size), Size: size}, nil)
				if errors.Is(err, ErrQueueFull) {
					m.OnSpace(next)
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				issued++
			}
		}
		next(0)
		eng.Run()
		return eng.Now()
	}
	small := run(128, 128)
	big := run(1, 16384)
	if small < 3*big {
		t.Fatalf("128x128B (%d cycles) should be much slower than 1x16KB (%d cycles)", small, big)
	}
}

// TestResetIdleOccupancyLikeFresh: an MFC used in one run, Reset, and
// left idle through the next must report the all-zero occupancy
// histogram a fresh MFC reports, not charge the whole idle run to level
// 0. A recycled system whose next scenario leaves this SPE untouched
// depends on it.
func TestResetIdleOccupancyLikeFresh(t *testing.T) {
	eng, fab, m, ls := newMFC(100)
	if err := m.Enqueue(Cmd{Kind: Get, Tag: 1, LSAddr: 0, EA: 4096, Size: 1024}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if h := m.OccupancyHist(); h[0]+h[1] == 0 {
		t.Fatalf("used MFC histogram %v is empty", h)
	}

	eng.Reset()
	m.Reset(fab, ls, DefaultConfig())
	eng.At(5000, func() {}) // the next run advances time without this MFC
	eng.Run()
	fresh := New(eng, fab, ls, DefaultConfig()).OccupancyHist()
	if got := m.OccupancyHist(); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("idle MFC after Reset: histogram %v, fresh MFC %v", got, fresh)
	}

	// Touched again after Reset, it counts from the reset clock on.
	eng.Reset()
	m.Reset(fab, ls, DefaultConfig())
	if err := m.Enqueue(Cmd{Kind: Get, Tag: 1, LSAddr: 0, EA: 4096, Size: 1024}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var sum sim.Time
	for _, c := range m.OccupancyHist() {
		sum += c
	}
	if sum != eng.Now() {
		t.Fatalf("reused MFC histogram sums to %d cycles, run took %d", sum, eng.Now())
	}
}
