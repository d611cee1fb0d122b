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
// Each SMT thread runs a program of streaming load/store/copy passes,
// matching the paper's benchmark loops, as an event-driven record (see
// PPE.Run).
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

// Stats is a view of the PPE's counter block.
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

	inflight  map[int64]*fill // line address -> outstanding fill
	fillFree  *fill           // free list of fill records (the engine is single-threaded)
	storePort *sim.TokenBucket
	threads   [2]thread
	watched   bool // the threads' liveness reporter is registered

	tracer        *trace.Tracer
	perf          *perfctr.PPECounters
	activeThreads int
}

// SetTracer attaches an event tracer (nil disables tracing, the default).
// Wired by the cell package at system assembly, like SetFaults elsewhere.
func (p *PPE) SetTracer(tr *trace.Tracer) { p.tracer = tr }

// SetPerf points the PPE at the counter block it counts into (New starts
// it on a private one). Wired by the cell package at system assembly,
// before the first event.
func (p *PPE) SetPerf(pc *perfctr.PPECounters) { p.perf = pc }

// InflightFills returns the current L2 miss-queue occupancy (demand misses
// plus prefetches with a fill outstanding).
func (p *PPE) InflightFills() int { return len(p.inflight) }

// Reset returns the PPE to the state New(eng, mem, cfg) would build on its
// reset engine, keeping both cache arrays (flushed), the fill map and the
// pooled records. The tracer is cleared as on a fresh PPE; the counter
// block is left for the assembling layer to re-point. Part of the
// warm-system recycling path.
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
	p.threads[0].running, p.threads[1].running = false, false
	p.watched = false
	p.tracer = nil
	p.activeThreads = 0
}

// New returns a PPE attached to mem.
func New(eng *sim.Engine, mem MemoryPort, cfg Config) *PPE {
	return &PPE{
		eng:       eng,
		cfg:       cfg,
		mem:       mem,
		l1:        newCacheArray(cfg.L1Bytes, LineBytes, cfg.L1Assoc),
		l2:        newCacheArray(cfg.L2Bytes, LineBytes, cfg.L2Assoc),
		inflight:  make(map[int64]*fill),
		storePort: sim.NewTokenBucket(eng, cfg.StorePortInterval),
		perf:      new(perfctr.PPECounters),
	}
}

// Stats returns a snapshot of the activity counters, computed from the
// counter block.
func (p *PPE) Stats() Stats {
	c := p.perf
	return Stats{
		Loads:       int64(c.Loads),
		Stores:      int64(c.Stores),
		L1Misses:    int64(c.L1Misses),
		L2Misses:    int64(c.Fills),
		Prefetches:  int64(c.PrefetchFills),
		RFOs:        int64(c.RFOs),
		Writebacks:  int64(c.Writebacks),
		StoreChunks: int64(c.StoreChunks),
	}
}

// smt returns the issue-cost multiplier: with both SMT threads running,
// each thread gets every other issue slot.
func (p *PPE) smt() sim.Time {
	if p.activeThreads >= 2 {
		return 2
	}
	return 1
}

// fetch starts (or joins) an L2 line fill and returns its record. dirty
// marks the line modified upon arrival (RFO path).
func (p *PPE) fetch(lineAddr int64, dirty bool) *fill {
	if f, ok := p.inflight[lineAddr]; ok {
		if dirty {
			f.subs = append(f.subs, nil) // the store dirties the line after arrival
		}
		return f
	}
	f := p.fillFree
	if f == nil {
		f = &fill{p: p}
	} else {
		p.fillFree = f.next
	}
	f.line, f.dirty, f.issuedAt = lineAddr, dirty, p.eng.Now()
	p.inflight[lineAddr] = f
	p.perf.Fills++
	p.tracer.Counter(trace.TrackPPEMissQ, p.eng.Now(), int64(len(p.inflight)))
	p.mem.ReadLine(lineAddr, p.eng.Now(), f)
	return f
}

// fill is the pooled record of one L2 line fill. Its arrival installs the
// line (writing back a dirty victim), retires the miss-queue entry and,
// if anyone subscribed, posts one delay-0 drain event that releases the
// subscribers in order. The record returns to the PPE's free list once it
// has arrived and drained and no thread's RFO queue holds it.
type fill struct {
	p        *PPE
	line     int64
	dirty    bool
	issuedAt sim.Time
	arrived  bool
	refs     int       // RFO queue entries holding the record
	subs     []*thread // subscribers until drained; a nil entry marks the line dirty
	next     *fill     // free-list link
}

// Call is the fill's arrival.
func (f *fill) Call(end sim.Time) {
	p := f.p
	if ev, evDirty, has := p.l2.Insert(f.line, f.dirty); has && evDirty {
		p.perf.Writebacks++
		p.mem.WriteLine(ev, end, discard{})
	}
	delete(p.inflight, f.line)
	rfo := int64(0)
	if f.dirty {
		rfo = 1
	}
	p.tracer.Emit(trace.TrackPPE, trace.KindFill, f.issuedAt, p.eng.Now(), f.line, rfo, 0, 0)
	p.tracer.Counter(trace.TrackPPEMissQ, p.eng.Now(), int64(len(p.inflight)))
	f.arrived = true
	if len(f.subs) > 0 {
		p.eng.PostCallee((*fillDrain)(f), 0)
	}
	f.release()
}

// fillDrain is a fill viewed as its drain event's target: posting the
// converted pointer allocates nothing.
type fillDrain fill

// Call releases the subscribers, in order.
func (d *fillDrain) Call(sim.Time) {
	f := (*fill)(d)
	for _, t := range f.subs {
		if t == nil {
			f.p.l2.MarkDirty(f.line)
		} else {
			t.step()
		}
	}
	f.subs = f.subs[:0]
	f.release()
}

// release returns the record to the free list once it has arrived and
// nothing refers to it: no undrained subscriber, no RFO queue entry.
func (f *fill) release() {
	if f.arrived && len(f.subs) == 0 && f.refs == 0 {
		*f = fill{p: f.p, subs: f.subs, next: f.p.fillFree}
		f.p.fillFree = f
	}
}

// discard is the completion of a writeback nobody waits for. It has no
// fields, so passing it as a sim.Callee allocates nothing.
type discard struct{}

func (discard) Call(sim.Time) {}

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

// Pass is one sweep of a thread's program over a buffer: Load reads and
// Store writes the Bytes at Src, Copy reads Src and writes Dst, Elem bytes
// per access. Addresses and Bytes must be line aligned.
type Pass struct {
	Op              Op
	Src, Dst, Bytes int64
	Elem            int
}

// Run starts hardware thread id (0 or 1) on passes, run back to back from
// the current cycle, charging issue costs and cache stalls. lap, if not
// nil, is called with each pass's index and end cycle, then with
// len(passes) once the thread retires: its store queue drained and its
// RFOs arrived. The PPE models SMT issue sharing while both threads run.
func (p *PPE) Run(id int, passes []Pass, lap func(pass int, at sim.Time)) {
	if id != 0 && id != 1 {
		panic("ppe: thread id must be 0 or 1")
	}
	t := &p.threads[id]
	if t.running {
		panic(fmt.Sprintf("ppe: thread %d is already running", id))
	}
	for _, ps := range passes {
		if uint(ps.Op) > uint(Copy) || ps.Bytes%LineBytes != 0 || ps.Src%LineBytes != 0 || (ps.Op == Copy && ps.Dst%LineBytes != 0) {
			panic(fmt.Sprintf("ppe: bad pass %+v: a load, store or copy over line-aligned buffers", ps))
		}
		p.cfg.LoadCost.Cost(ps.Elem) // panics on an unsupported element size
	}
	if !p.watched {
		p.watched = true
		p.eng.OnLiveness(func() []string {
			var stuck []string
			for i := range p.threads {
				if p.threads[i].running {
					stuck = append(stuck, fmt.Sprintf("ppe%d", i))
				}
			}
			return stuck
		})
	}
	t.drain.Reset()
	t.rfos.Reset()
	*t = thread{p: p, running: true, passes: passes, lap: lap, pass: -1, drain: t.drain, rfos: t.rfos, streamNext: -1}
	p.activeThreads++
	p.eng.PostCallee(t, 0)
}

// thread is one SMT hardware thread running its program as an
// event-driven record, as the cell package's dmaStream runs an SPU's DMA
// program: a timed stall is one continuation event (none for zero
// cycles), and a thread waiting on a fill is resumed inline by its drain.
type thread struct {
	p       *PPE
	running bool
	pc      int // continuation point step resumes from

	passes []Pass
	lap    func(pass int, at sim.Time)
	pass   int      // current pass
	off    int64    // current line's offset within the pass
	chunk  int      // store chunks of the current line pushed so far
	stall  sim.Time // the current demand miss's stall

	// The current pass's issue charge per line (before SMT sharing) and
	// store chunks per line.
	issue         sim.Time
	chunksPerLine int

	// Gathering store queue: completion times of in-flight chunks.
	drain     sim.FIFO[sim.Time]
	lastDrain sim.Time

	// Outstanding RFO fills; each entry holds a reference on its record.
	rfos sim.FIFO[*fill]

	// Sequential prefetch stream state.
	streamNext int64
}

// Continuation points (thread.pc).
const (
	pcPassEnd   = iota // start the next pass, or retire after the last
	pcLine             // charge the current line's issue
	pcLoad             // issue charged: the line's loads
	pcMissStall        // L2 hit or awaited fill arrived: the miss stall
	pcL1Fill           // demand miss served: prefetch, fill L1
	pcStore            // the line's stores: make the line writable
	pcChunk            // push the line's next store chunk
	pcPush             // store-queue slot free: push the chunk
	pcRetire           // all passes done: drain the store queue and RFOs
)

// Call resumes the thread after a timed stall.
func (t *thread) Call(sim.Time) { t.step() }

// wait stalls the thread for d cycles, to resume at pc. It reports
// whether the thread parked: a zero stall continues inline.
func (t *thread) wait(d sim.Time, pc int) bool {
	t.pc = pc
	if d == 0 {
		return false
	}
	t.p.eng.AtCallee(t.p.eng.Now()+d, t, 0)
	return true
}

// awaitRFOs retires outstanding RFOs oldest first until at most keep
// remain. It reports whether the thread parked on a fill that has not
// arrived, to resume at the same continuation point.
func (t *thread) awaitRFOs(keep int) bool {
	for t.rfos.Len() > keep {
		f := t.rfos.Pop()
		f.refs--
		if !f.arrived {
			f.subs = append(f.subs, t)
			return true
		}
		f.release()
	}
	return false
}

// step runs the thread from its continuation point until it parks or
// retires.
func (t *thread) step() {
	p := t.p
	cfg := &p.cfg
	for {
		now := p.eng.Now()
		switch t.pc {
		case pcPassEnd:
			if t.pass >= 0 && t.lap != nil {
				t.lap(t.pass, now)
			}
			if t.pass++; t.pass == len(t.passes) {
				t.pc = pcRetire
				continue
			}
			ps := &t.passes[t.pass]
			t.off = 0
			t.chunksPerLine = LineBytes / max(cfg.StoreChunkBytes, ps.Elem) // a wide store is its own chunk
			t.issue = 0
			if ps.Op != Store {
				t.issue += cfg.LoadCost.Cost(ps.Elem)
			}
			if ps.Op != Load {
				t.issue += cfg.StoreCost.Cost(ps.Elem)
			}
			t.issue *= sim.Time(LineBytes / ps.Elem)
			t.pc = pcLine
		case pcLine:
			if t.off >= t.passes[t.pass].Bytes {
				t.pc = pcPassEnd
				continue
			}
			if t.wait(t.issue*p.smt(), pcLoad) {
				return
			}
		case pcLoad:
			t.pc = pcStore
			ps := &t.passes[t.pass]
			if ps.Op == Store {
				continue
			}
			la := ps.Src + t.off
			p.perf.Loads += uint64(LineBytes / ps.Elem)
			if p.l1.Lookup(la) {
				continue
			}
			// Demand miss: an L2 hit, a fill join or a memory fetch stalls.
			p.perf.L1Misses++
			if p.l2.Lookup(la) {
				t.stall, t.pc = cfg.L2HitLatency, pcMissStall
				continue
			}
			p.perf.MissQStalls++
			f, joined := p.inflight[la]
			if joined {
				t.stall = cfg.L2HitLatency + cfg.L2RefillExtra
			} else {
				f = p.fetch(la, false)
				t.stall = cfg.L2RefillExtra
			}
			t.pc = pcMissStall
			f.subs = append(f.subs, t)
			return
		case pcMissStall:
			if t.wait(t.stall, pcL1Fill) {
				return
			}
		case pcL1Fill:
			// Keep a detected stream running ahead even while demand hits
			// land in L2; otherwise the prefetcher sawtooths between
			// bursts.
			la := t.passes[t.pass].Src + t.off
			t.prefetchAfter(la)
			p.l1.Insert(la, false)
			t.pc = pcStore
		case pcStore:
			ps := &t.passes[t.pass]
			if ps.Op == Load {
				t.off += LineBytes
				t.pc = pcLine
				continue
			}
			sa := ps.Src + t.off
			if ps.Op == Copy {
				sa = ps.Dst + t.off
			}
			p.perf.Stores += uint64(LineBytes / ps.Elem)
			// Write-through, no-allocate L1: stores update L1 data in
			// place on a hit (no timing effect) and always drain to L2.
			// On an L2 miss the line is fetched first (RFO), stalling only
			// while RFOWindow fetches are already outstanding.
			t.chunk = 0
			t.pc = pcChunk
			if p.l2.Lookup(sa) {
				p.l2.MarkDirty(sa)
				continue
			}
			p.perf.RFOs++
			f := p.fetch(sa, true)
			f.refs++
			t.rfos.Push(f)
		case pcChunk:
			// Before the first chunk, wait out the RFO window (a no-op
			// unless this line's RFO overfilled it).
			if t.chunk == 0 && t.awaitRFOs(cfg.RFOWindow) {
				return
			}
			if t.chunk == t.chunksPerLine {
				t.off += LineBytes
				t.pc = pcLine
				continue
			}
			// A full store queue stalls the thread until its oldest
			// chunk drains.
			t.pc = pcPush
			if t.drain.Len() >= cfg.StoreQueueChunks {
				if head := t.drain.Pop(); head > now && t.wait(head-now, pcPush) {
					return
				}
			}
		case pcPush:
			t.lastDrain = p.storePort.Take(max(now, t.lastDrain)) + cfg.StoreDrainCycles
			t.drain.Push(t.lastDrain)
			p.perf.StoreChunks++
			t.chunk++
			t.pc = pcChunk
		case pcRetire:
			// Re-entered after each stall: the queue wait is then zero.
			if t.wait(max(t.lastDrain-now, 0), pcRetire) {
				return
			}
			if t.awaitRFOs(0) {
				return
			}
			t.running = false
			p.activeThreads--
			if t.lap != nil {
				t.lap(len(t.passes), now)
			}
			return
		}
	}
}

// prefetchAfter runs the sequential L2 prefetcher past a demand miss.
func (t *thread) prefetchAfter(lineAddr int64) {
	p := t.p
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
		p.perf.PrefetchFills++
		p.fetch(next, false)
	}
	t.streamNext = next
}
