// Package ppe models the Power Processor Element: a 2-way SMT in-order
// PPU with a 32 KB write-through L1 data cache and a 512 KB L2, attached
// to the EIB. It reproduces the mechanisms behind Figures 3, 4 and 6 of
// the paper:
//
//   - per-access issue costs that make bandwidth proportional to the
//     element size, plateauing at half the 16.8 GB/s L1 peak (the PPU has
//     one load/store unit; wide accesses cost extra cycles),
//   - an in-order core that blocks on every demand load miss, so L2-hit
//     bandwidth is latency-bound (~128 B per L2 latency),
//   - a gathering store queue per thread that drains 16-byte chunks
//     through the shared L2 write port, which caps store bandwidth below
//     load bandwidth and rewards a second thread,
//   - an L2 stream prefetcher that hides main-memory latency behind the
//     same L1-miss service bottleneck — which is why the paper measures
//     memory *read* bandwidth equal to L2 read bandwidth,
//   - store misses that must fetch the line first (RFO) with very limited
//     concurrency, which is why memory *write* bandwidth is so poor.
//
// PPU kernels run as simulator coroutines (one per SMT thread) built from
// streaming load/store/copy primitives, matching the paper's benchmark
// loops.
package ppe

import (
	"fmt"

	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
	"cellbe/internal/trace"
)

// LineBytes is the cache line size of both cache levels.
const LineBytes = 128

// MemoryPort is the PPE's path to main memory for line fills and
// writebacks: the cell package routes it over the simulated EIB to the
// MIC. done.Call(end) fires when the access completes.
type MemoryPort interface {
	ReadLine(addr int64, earliest sim.Time, done sim.Callee)
	WriteLine(addr int64, earliest sim.Time, done sim.Callee)
}

// AccessCosts maps element sizes 1,2,4,8,16 to per-access issue cycles.
type AccessCosts struct {
	C1, C2, C4, C8, C16 sim.Time
}

// Cost returns the issue cost for an element size.
func (a AccessCosts) Cost(size int) sim.Time {
	switch size {
	case 1:
		return a.C1
	case 2:
		return a.C2
	case 4:
		return a.C4
	case 8:
		return a.C8
	case 16:
		return a.C16
	}
	panic(fmt.Sprintf("ppe: unsupported element size %d", size))
}

// Config holds PPE model parameters (cycles are CPU cycles at 2.1 GHz).
type Config struct {
	L1Bytes int
	L1Assoc int
	L2Bytes int
	L2Assoc int

	// LoadCost/StoreCost are per-access issue costs. With one access per
	// cycle up to 4 bytes and wider accesses costing extra cycles, load
	// bandwidth is 2.1/4.2/8.4/8.4/8.4 GB/s for 1/2/4/8/16-byte elements
	// — the Figure 3(a) plateau at half the L1 peak.
	LoadCost  AccessCosts
	StoreCost AccessCosts

	// L2HitLatency is the load-to-use stall for an L1 miss that hits L2
	// (or a prefetched line): the in-order PPU cannot overlap it, making
	// L2 bandwidth ~ LineBytes / L2HitLatency per thread.
	L2HitLatency sim.Time
	// L2RefillExtra is the additional stall when the demand miss had to
	// wait for an in-flight fill.
	L2RefillExtra sim.Time

	// StoreChunkBytes is the gathering granularity of the store queue.
	StoreChunkBytes int
	// StoreQueueChunks is the per-thread store-queue capacity; the thread
	// stalls when it is full.
	StoreQueueChunks int
	// StoreDrainCycles paces each thread's queue drain into L2.
	StoreDrainCycles sim.Time
	// StorePortInterval is the shared L2 write port occupancy per chunk.
	StorePortInterval sim.Time

	// PrefetchDepth is how many sequential lines the L2 prefetcher runs
	// ahead of a demand miss stream.
	PrefetchDepth int
	// RFOWindow bounds outstanding store-miss line fetches per thread;
	// beyond it the thread stalls. This is the paper's "L2 to Memory
	// store queue is quickly saturated".
	RFOWindow int
}

// DefaultConfig returns the calibrated PPE parameters.
func DefaultConfig() Config {
	return Config{
		L1Bytes:           32 << 10,
		L1Assoc:           4,
		L2Bytes:           512 << 10,
		L2Assoc:           8,
		LoadCost:          AccessCosts{C1: 1, C2: 1, C4: 1, C8: 2, C16: 4},
		StoreCost:         AccessCosts{C1: 1, C2: 1, C4: 2, C8: 3, C16: 4},
		L2HitLatency:      100,
		L2RefillExtra:     20,
		StoreChunkBytes:   16,
		StoreQueueChunks:  16,
		StoreDrainCycles:  5,
		StorePortInterval: 2,
		PrefetchDepth:     8,
		RFOWindow:         2,
	}
}

// Stats aggregates PPE activity.
type Stats struct {
	Loads       int64
	Stores      int64
	L1Misses    int64
	L2Misses    int64
	Prefetches  int64
	RFOs        int64
	Writebacks  int64
	StoreChunks int64
}

// PPE is the Power Processor Element model.
type PPE struct {
	eng *sim.Engine
	cfg Config
	mem MemoryPort

	l1 *cacheArray
	l2 *cacheArray

	inflight  map[int64]*sim.Signal // line address -> fill completion
	fillFree  *fill                 // free list of fill records (the engine is single-threaded)
	storePort *sim.TokenBucket

	tracer        *trace.Tracer
	perf          *perfctr.PPECounters
	activeThreads int
	stats         Stats
}

// SetTracer attaches an event tracer (nil disables tracing, the default).
// Wired by the cell package at system assembly, like SetFaults elsewhere.
func (p *PPE) SetTracer(tr *trace.Tracer) { p.tracer = tr }

// SetPerf attaches a perf-counter block (nil disables counting, the
// default). Wired by the cell package at system assembly, like SetTracer.
func (p *PPE) SetPerf(pc *perfctr.PPECounters) { p.perf = pc }

// InflightFills returns the current L2 miss-queue occupancy (demand misses
// plus prefetches with a fill outstanding).
func (p *PPE) InflightFills() int { return len(p.inflight) }

// Reset returns the PPE to the state New(eng, mem, cfg) would build,
// keeping both cache arrays (flushed) and the fill map. Attachments
// (tracer, perf) are cleared as on a fresh PPE; the assembling layer
// rewires them. Part of the warm-system recycling path.
func (p *PPE) Reset(mem MemoryPort, cfg Config) {
	if cfg.L1Bytes != p.cfg.L1Bytes || cfg.L1Assoc != p.cfg.L1Assoc {
		p.l1 = newCacheArray(cfg.L1Bytes, LineBytes, cfg.L1Assoc)
	} else {
		p.l1.Flush()
	}
	if cfg.L2Bytes != p.cfg.L2Bytes || cfg.L2Assoc != p.cfg.L2Assoc {
		p.l2 = newCacheArray(cfg.L2Bytes, LineBytes, cfg.L2Assoc)
	} else {
		p.l2.Flush()
	}
	p.cfg = cfg
	p.mem = mem
	clear(p.inflight)
	p.storePort.Reset(cfg.StorePortInterval)
	p.tracer, p.perf = nil, nil
	p.activeThreads = 0
	p.stats = Stats{}
}

// New returns a PPE attached to mem.
func New(eng *sim.Engine, mem MemoryPort, cfg Config) *PPE {
	return &PPE{
		eng:       eng,
		cfg:       cfg,
		mem:       mem,
		l1:        newCacheArray(cfg.L1Bytes, LineBytes, cfg.L1Assoc),
		l2:        newCacheArray(cfg.L2Bytes, LineBytes, cfg.L2Assoc),
		inflight:  make(map[int64]*sim.Signal),
		storePort: sim.NewTokenBucket(eng, cfg.StorePortInterval),
	}
}

// Stats returns a snapshot of the activity counters.
func (p *PPE) Stats() Stats { return p.stats }

// Config returns the configuration in use.
func (p *PPE) Config() Config { return p.cfg }

// FlushCaches invalidates both cache levels (between experiment runs).
func (p *PPE) FlushCaches() {
	p.l1.Flush()
	p.l2.Flush()
}

// smt returns the issue-cost multiplier: with both SMT threads running,
// each thread gets every other issue slot.
func (p *PPE) smt() sim.Time {
	if p.activeThreads >= 2 {
		return 2
	}
	return 1
}

// fetch starts (or joins) an L2 line fill and returns its completion
// signal. dirty marks the line modified upon arrival (RFO path).
func (p *PPE) fetch(lineAddr int64, dirty bool) *sim.Signal {
	if sig, ok := p.inflight[lineAddr]; ok {
		if dirty {
			// The store will dirty it after arrival.
			sig.OnFire(func() { p.l2.MarkDirty(lineAddr) })
		}
		return sig
	}
	sig := sim.NewSignal(p.eng)
	p.inflight[lineAddr] = sig
	p.stats.L2Misses++
	p.perf.Fill()
	p.tracer.Counter(trace.TrackPPEMissQ, p.eng.Now(), int64(len(p.inflight)))
	f := p.fillFree
	if f == nil {
		f = &fill{p: p}
	} else {
		p.fillFree = f.next
	}
	f.line, f.dirty, f.issuedAt, f.sig = lineAddr, dirty, p.eng.Now(), sig
	p.mem.ReadLine(lineAddr, p.eng.Now(), f)
	return sig
}

// fill is the pooled completion record of one L2 line fill: it installs
// the line (writing back a dirty victim), retires the miss-queue entry and
// fires the fill's signal. Records recycle through a free list on the PPE
// and are released before the signal fires.
type fill struct {
	p        *PPE
	line     int64
	dirty    bool
	issuedAt sim.Time
	sig      *sim.Signal
	next     *fill // free-list link
}

func (f *fill) Call(end sim.Time) {
	p := f.p
	if ev, evDirty, has := p.l2.Insert(f.line, f.dirty); has && evDirty {
		p.stats.Writebacks++
		p.mem.WriteLine(ev, end, discard{})
	}
	delete(p.inflight, f.line)
	rfo := int64(0)
	if f.dirty {
		rfo = 1
	}
	p.tracer.Emit(trace.TrackPPE, trace.KindFill, f.issuedAt, p.eng.Now(), f.line, rfo, 0, 0)
	p.tracer.Counter(trace.TrackPPEMissQ, p.eng.Now(), int64(len(p.inflight)))
	sig := f.sig
	*f = fill{p: p, next: p.fillFree}
	p.fillFree = f
	sig.Fire()
}

// discard is the completion of a writeback nobody waits for. It has no
// fields, so passing it as a sim.Callee allocates nothing.
type discard struct{}

func (discard) Call(sim.Time) {}

// Thread is one SMT hardware thread running a kernel coroutine.
type Thread struct {
	*sim.Process
	ppe *PPE
	id  int

	// Gathering store queue: completion times of in-flight chunks.
	drain     sim.FIFO[sim.Time]
	lastDrain sim.Time

	// Outstanding RFO fills.
	rfos sim.FIFO[*sim.Signal]

	// Sequential prefetch stream state.
	streamNext int64
}

// Spawn starts fn on hardware thread id (0 or 1). The PPE tracks how many
// threads are active to model SMT issue sharing; a thread counts as active
// until fn returns.
func (p *PPE) Spawn(id int, name string, fn func(t *Thread)) *sim.Process {
	if id != 0 && id != 1 {
		panic("ppe: thread id must be 0 or 1")
	}
	p.activeThreads++
	return sim.Spawn(p.eng, name, func(proc *sim.Process) {
		defer func() { p.activeThreads-- }()
		t := &Thread{Process: proc, ppe: p, id: id, streamNext: -1}
		fn(t)
		t.drainStoreQueue()
	})
}

// drainStoreQueue waits for all queued store chunks to retire.
func (t *Thread) drainStoreQueue() {
	if t.lastDrain > t.Now() {
		t.Wait(t.lastDrain - t.Now())
	}
	t.drain.Reset()
	for t.rfos.Len() > 0 {
		t.WaitSignal(t.rfos.Pop())
	}
}

// demandLoad stalls the thread for an L1 miss on lineAddr: L2 hit latency,
// an in-flight fill join, or a full memory fetch; it then triggers the
// stream prefetcher and fills L1.
func (t *Thread) demandLoad(lineAddr int64) {
	p := t.ppe
	p.stats.L1Misses++
	switch {
	case p.l2.Lookup(lineAddr):
		t.Wait(p.cfg.L2HitLatency)
		// Keep a detected stream running ahead even while demand hits
		// land in L2; otherwise the prefetcher sawtooths between bursts.
		t.prefetchAfter(lineAddr)
	default:
		p.perf.MissQStall()
		if sig, ok := p.inflight[lineAddr]; ok {
			t.WaitSignal(sig)
			t.Wait(p.cfg.L2HitLatency + p.cfg.L2RefillExtra)
		} else {
			sig := p.fetch(lineAddr, false)
			t.WaitSignal(sig)
			t.Wait(p.cfg.L2RefillExtra)
		}
		t.prefetchAfter(lineAddr)
	}
	p.l1.Insert(lineAddr, false)
}

// prefetchAfter runs the sequential L2 prefetcher past a demand miss.
func (t *Thread) prefetchAfter(lineAddr int64) {
	p := t.ppe
	if p.cfg.PrefetchDepth <= 0 {
		return
	}
	next := lineAddr + LineBytes
	limit := lineAddr + int64(p.cfg.PrefetchDepth)*LineBytes
	// Continue the tracked stream if this miss falls inside its window;
	// otherwise this is a new stream (e.g. a fresh pass over the buffer).
	if t.streamNext > next && t.streamNext <= limit+LineBytes {
		next = t.streamNext
	}
	for ; next <= limit; next += LineBytes {
		if len(p.inflight) >= p.cfg.PrefetchDepth {
			break
		}
		if p.l2.Contains(next) {
			continue
		}
		if _, ok := p.inflight[next]; ok {
			continue
		}
		p.stats.Prefetches++
		p.perf.PrefetchFill()
		p.fetch(next, false)
	}
	t.streamNext = next
}

// pushStoreChunk retires one gathered 16-byte chunk through the store
// queue, stalling the thread when the queue is full.
func (t *Thread) pushStoreChunk() {
	p := t.ppe
	if t.drain.Len() >= p.cfg.StoreQueueChunks {
		head := t.drain.Pop()
		if head > t.Now() {
			t.Wait(head - t.Now())
		}
	}
	start := t.Now()
	if t.lastDrain > start {
		start = t.lastDrain
	}
	start = p.storePort.Take(start)
	done := start + p.cfg.StoreDrainCycles
	t.lastDrain = done
	t.drain.Push(done)
	p.stats.StoreChunks++
}

// ensureLineForStore makes lineAddr writable in L2: on a miss it issues an
// RFO fetch, stalling only when RFOWindow fills are already outstanding.
func (t *Thread) ensureLineForStore(lineAddr int64) {
	p := t.ppe
	if p.l2.Lookup(lineAddr) {
		p.l2.MarkDirty(lineAddr)
		return
	}
	p.stats.RFOs++
	sig := p.fetch(lineAddr, true)
	t.rfos.Push(sig)
	for t.rfos.Len() > p.cfg.RFOWindow {
		t.WaitSignal(t.rfos.Pop())
	}
}

// Op selects a streaming kernel.
type Op int

// Streaming kernels matching the paper's load/store/copy microbenchmarks.
const (
	Load Op = iota
	Store
	Copy
)

func (o Op) String() string {
	switch o {
	case Load:
		return "load"
	case Store:
		return "store"
	case Copy:
		return "copy"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// StreamLoad walks bytes of memory at addr with elemSize-byte loads,
// charging issue costs and cache stalls.
func (t *Thread) StreamLoad(addr, bytes int64, elemSize int) {
	t.stream(Load, addr, 0, bytes, elemSize)
}

// StreamStore walks bytes of memory at addr with elemSize-byte stores.
func (t *Thread) StreamStore(addr, bytes int64, elemSize int) {
	t.stream(Store, addr, 0, bytes, elemSize)
}

// StreamCopy loads from src and stores to dst, elemSize bytes at a time.
func (t *Thread) StreamCopy(src, dst, bytes int64, elemSize int) {
	t.stream(Copy, src, dst, bytes, elemSize)
}

func (t *Thread) stream(op Op, src, dst, bytes int64, elemSize int) {
	p := t.ppe
	if bytes%LineBytes != 0 || src%LineBytes != 0 || (op == Copy && dst%LineBytes != 0) {
		panic("ppe: stream kernels must be line aligned")
	}
	perLine := int64(LineBytes / elemSize)
	chunksPerLine := LineBytes / p.cfg.StoreChunkBytes
	if elemSize > p.cfg.StoreChunkBytes {
		chunksPerLine = LineBytes / elemSize // each wide store is its own chunk
	}

	var issue sim.Time
	switch op {
	case Load:
		issue = p.cfg.LoadCost.Cost(elemSize) * sim.Time(perLine)
	case Store:
		issue = p.cfg.StoreCost.Cost(elemSize) * sim.Time(perLine)
	case Copy:
		issue = (p.cfg.LoadCost.Cost(elemSize) + p.cfg.StoreCost.Cost(elemSize)) * sim.Time(perLine)
	}

	for off := int64(0); off < bytes; off += LineBytes {
		t.Wait(issue * p.smt())
		if op == Load || op == Copy {
			la := src + off
			p.stats.Loads += perLine
			if !p.l1.Lookup(la) {
				t.demandLoad(la)
			}
		}
		if op == Store || op == Copy {
			sa := dst + off
			if op == Store {
				sa = src + off
			}
			p.stats.Stores += perLine
			// Write-through, no-allocate L1: stores update L1 data in
			// place on a hit (no timing effect) and always drain to L2.
			t.ensureLineForStore(sa)
			for c := 0; c < chunksPerLine; c++ {
				t.pushStoreChunk()
			}
		}
	}
}
