// Package mfc models the Memory Flow Controller of an SPE: the DMA engine
// through which all SPE communication happens.
//
// The model covers the parts of the MFC the paper's microbenchmarks
// exercise:
//
//   - a 16-entry SPU command queue (plus the 8-entry proxy queue used by
//     PPE-initiated DMA),
//   - GET/PUT element commands up to 16 KB, split into 128-byte bus
//     packets at effective-address line boundaries,
//   - GETL/PUTL list commands (up to 2048 elements per list) processed
//     element by element with a small per-element overhead,
//   - fence and barrier ordering variants,
//   - 32 tag groups with completion waiting,
//   - a bounded window of outstanding bus packets, which is what limits a
//     single SPE's memory bandwidth to ~10 GB/s in the paper (window ×
//     line size / round-trip latency).
//
// The MFC does not touch the EIB directly; it issues line-granularity
// reads/writes against a Fabric, which the cell package routes to main
// memory or to another SPE's local store.
package mfc

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"cellbe/internal/fault"
	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
	"cellbe/internal/trace"
)

// MaxTransfer is the architectural maximum size of one DMA element (16 KB).
const MaxTransfer = 16 * 1024

// MaxListElements is the architectural maximum list length.
const MaxListElements = 2048

// NumTags is the number of tag groups.
const NumTags = 32

// LineBytes is the bus packet granularity.
const LineBytes = 128

// Fabric is the MFC's view of the rest of the machine: line-granularity
// reads and writes by effective address. Calls must not cross a 128-byte
// EA boundary. done.Call fires at the simulated completion time; the
// dst/src slices are filled/read at that moment. done is an interface
// rather than a closure so the per-packet completion target is the
// command-state record itself — no allocation per packet, and pending
// completions stay identifiable to state inspection.
type Fabric interface {
	ReadEA(ea int64, n int, earliest sim.Time, dst []byte, done sim.Callee)
	WriteEA(ea int64, n int, earliest sim.Time, src []byte, done sim.Callee)
}

// Kind is the DMA command type.
type Kind int

const (
	// Get transfers from effective address space into the local store.
	Get Kind = iota
	// Put transfers from the local store to effective address space.
	Put
	// GetList is a list-directed Get: one command, many EA/size pairs.
	GetList
	// PutList is a list-directed Put.
	PutList
)

func (k Kind) String() string {
	switch k {
	case Get:
		return "get"
	case Put:
		return "put"
	case GetList:
		return "getl"
	case PutList:
		return "putl"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsList reports whether the kind is list-directed.
func (k Kind) IsList() bool { return k == GetList || k == PutList }

// IsGet reports whether data flows into the local store.
func (k Kind) IsGet() bool { return k == Get || k == GetList }

// ListElem is one entry of a DMA list: a transfer of Size bytes at EA. The
// local store address advances implicitly through the list.
type ListElem struct {
	EA   int64
	Size int
}

// Cmd is a DMA command as written to the MFC command queue.
type Cmd struct {
	Kind   Kind
	Tag    int   // tag group 0..31
	LSAddr int   // local store byte offset
	EA     int64 // effective address (element commands)
	Size   int   // bytes (element commands)
	List   []ListElem
	// Fence delays this command until previously enqueued commands of the
	// same tag group complete; Barrier until all previous commands do.
	Fence   bool
	Barrier bool
}

// Errors returned by Enqueue.
var (
	ErrQueueFull  = errors.New("mfc: command queue full")
	ErrBadCommand = errors.New("mfc: invalid command")
)

// Config holds MFC timing and capacity parameters (cycles are CPU cycles).
type Config struct {
	// QueueDepth is the SPU command queue depth (16).
	QueueDepth int
	// ProxyDepth is the PPE-side proxy command queue depth (8).
	ProxyDepth int
	// Window is the maximum outstanding bus packets across element
	// commands. This bound, times 128 bytes, divided by the memory
	// round-trip time, is a single SPE's memory bandwidth ceiling.
	Window int
	// ListWindow is the outstanding-packet bound for a list command's
	// packets (the list unrolls sequentially with less lookahead).
	ListWindow int
	// SetupCycles is the front-end cost of starting each queued command.
	SetupCycles sim.Time
	// ListElemCycles is the cost of unrolling each list element (the MFC
	// fetches list entries from the local store, 8 bytes each).
	ListElemCycles sim.Time
	// IssueInterval paces bus packet issue: one packet per bus cycle.
	IssueInterval sim.Time
}

// DefaultConfig returns the Cell BE MFC parameters.
func DefaultConfig() Config {
	return Config{
		QueueDepth:     16,
		ProxyDepth:     8,
		Window:         16,
		ListWindow:     6,
		SetupCycles:    30,
		ListElemCycles: 4,
		IssueInterval:  2,
	}
}

// Stats is a view of the MFC's counter block.
type Stats struct {
	Commands     int64
	Packets      int64
	Bytes        int64
	ListElements int64
	Atomics      int64
}

type cmdState struct {
	cmd     Cmd
	seq     int64
	proxy   bool
	started bool
	// Issue-scan classification, fixed at enqueue. pickCommand runs once
	// per issued packet and scans every active command, so it reads these
	// packed bytes instead of chasing cmd.Kind/Fence/Barrier through the
	// much larger Cmd value.
	isList bool // kind is GetList/PutList
	isGet  bool // kind moves EA -> LS
	plain  bool // neither fenced nor barriered
	// element progress
	offset int // bytes issued (element commands)
	// list progress
	listIdx int // current list element
	listOff int // bytes issued within the current element
	lsOff   int // running local store offset (list commands)
	// completion accounting
	inflight    int
	issuedAll   bool
	totalIssued int64
	readyAt     sim.Time // fence/barrier release time (set when satisfied)
	// tracing timestamps: enqueue time and first bus-packet issue time
	// (plain stores, kept up to date whether or not a tracer is attached)
	issued      sim.Time
	firstPacket sim.Time
	done        sim.Callee
	// m backlinks to the owning MFC: the command state itself is the
	// per-packet completion Callee (a 16 KB command issues up to 128
	// line-sized packets, and allocating a fresh closure for each was a
	// top allocation site before the record became the target).
	m *MFC
	// retire is the prebound delayed-retirement target for the injected
	// late-completion fault path (see cmdState.Call).
	retire retireHandle
}

// Call is the bus-packet completion path: the fabric calls it once per
// finished packet. With fault injection attached, an injected late
// completion defers the retirement bookkeeping by the sampled delay.
func (st *cmdState) Call(end sim.Time) {
	m := st.m
	if m.faults != nil {
		if d := m.faults.DoneDelay(); d > 0 {
			// Injected late completion: the acknowledgement exists but the
			// MFC observes it a bounded number of cycles later.
			m.eng.AtCallee(m.eng.Now()+d, &st.retire, end)
			return
		}
	}
	st.retirePacket(end)
}

// retirePacket books one completed packet and pumps the queue.
func (st *cmdState) retirePacket(sim.Time) {
	m := st.m
	st.inflight--
	m.outstanding--
	if st.issuedAll && st.inflight == 0 {
		m.complete(st)
	}
	m.pump()
}

// retireHandle is the Callee the fault path schedules so a delayed
// retirement is still a prebound record, not a closure — and still
// classifiable by state inspection.
type retireHandle struct{ st *cmdState }

// Call performs the deferred retirement.
func (r *retireHandle) Call(end sim.Time) { r.st.retirePacket(end) }

// MFC is one SPE's memory flow controller.
type MFC struct {
	eng    *sim.Engine
	fabric Fabric
	ls     []byte
	cfg    Config
	faults *fault.Injector

	// taint, when set, is told the LS span a command will write before
	// the data lands (conservatively, at enqueue). The SPE wires its
	// dirty-span tracker here so recycled local stores know what to zero.
	taint func(lo, hi int)

	tracer   *trace.Tracer
	perf     *perfctr.MFCCounters
	traceSPE int               // logical SPE index for track identity
	tagStart [NumTags]sim.Time // cycle each tag group last went busy

	seq         int64
	spuQueue    int // occupied SPU queue slots
	proxyQueue  int
	active      []*cmdState // incomplete commands, enqueue order
	outstanding int
	nextIssue   sim.Time

	tagCount [NumTags]int
	// tagRequested/tagDelivered account payload bytes per tag group: a
	// command's bytes are requested at enqueue and delivered when its last
	// packet completes. The two must match at teardown (CheckConservation).
	tagRequested [NumTags]int64
	tagDelivered [NumTags]int64
	tagWaiters   []tagWaiter
	spaceSubs    []sim.Callee

	// freeCmds pools completed cmdStates for reuse by enqueue: command
	// records churn at DMA rate (one per command, every run), so the
	// steady-state hot path allocates none. States from aborted runs are
	// simply dropped; only cleanly completed ones are pooled.
	freeCmds []*cmdState

	// SPU-queue occupancy histogram: occHist[n] accumulates the simulated
	// cycles the queue spent holding exactly n commands (n = 0..QueueDepth),
	// advanced lazily at each occupancy transition, and empty until the
	// first one. occLast is the time of the last transition. The
	// histogram is observational only — it never feeds back into timing —
	// and costs one add per enqueue/complete.
	occHist []sim.Time
	occLast sim.Time
}

// tagWaiter is one WaitTags subscription: cb fires once every tag group
// in mask is idle.
type tagWaiter struct {
	mask uint32
	cb   sim.Callee
}

// New returns an MFC moving data between ls (the SPE's local store) and
// the fabric.
func New(eng *sim.Engine, fabric Fabric, ls []byte, cfg Config) *MFC {
	if cfg.QueueDepth <= 0 || cfg.Window <= 0 || cfg.ListWindow <= 0 {
		panic("mfc: invalid config")
	}
	return &MFC{eng: eng, fabric: fabric, ls: ls, cfg: cfg, perf: new(perfctr.MFCCounters)}
}

// SetFaults attaches a fault injector (nil disables injection). Wired by
// the cell package at system assembly.
func (m *MFC) SetFaults(inj *fault.Injector) { m.faults = inj }

// SetLSTaint registers the local-store dirty-span tracker commands that
// write into LS report to (nil disables tracking). Wired by the owning
// SPE.
func (m *MFC) SetLSTaint(fn func(lo, hi int)) { m.taint = fn }

// SetTracer attaches an event tracer (nil disables tracing, the default)
// and the logical SPE index that identifies this MFC's tracks. Wired by
// the cell package at system assembly, like SetFaults.
func (m *MFC) SetTracer(tr *trace.Tracer, spe int) {
	m.tracer = tr
	m.traceSPE = spe
}

// SetPerf points the MFC at the counter block it counts into (New starts
// it on a private one). Wired by the cell package at system assembly,
// before the first event.
func (m *MFC) SetPerf(pc *perfctr.MFCCounters) { m.perf = pc }

// QueueOccupancy returns the number of occupied SPU command-queue slots
// (the metrics sampler's per-SPE queue-depth gauge).
func (m *MFC) QueueOccupancy() int { return m.spuQueue }

// occAdvance charges the cycles since the last occupancy transition to the
// level the queue is leaving, then moves the accounting cursor to now.
func (m *MFC) occAdvance(level int) {
	if len(m.occHist) == 0 {
		// First transition since New or Reset.
		n := m.cfg.QueueDepth + 1
		m.occHist = slices.Grow(m.occHist, n)[:n]
		clear(m.occHist)
	}
	now := m.eng.Now()
	m.occHist[level] += now - m.occLast
	m.occLast = now
}

// OccupancyHist returns the time-weighted SPU-queue occupancy histogram:
// element n is the simulated cycles the queue spent holding exactly n
// commands, including the still-open span at the current level. The sum
// of all buckets equals the current simulated time once any command has
// been enqueued.
func (m *MFC) OccupancyHist() []sim.Time {
	out := make([]sim.Time, m.cfg.QueueDepth+1)
	copy(out, m.occHist)
	if len(m.occHist) > 0 {
		out[m.spuQueue] += m.eng.Now() - m.occLast
	}
	return out
}

// Reset returns the MFC to the state New(eng, fabric, ls, cfg) would
// build, keeping grown slice capacities (active queue, waiter lists,
// occupancy histogram). Attachments (faults, tracer) are cleared as on a
// fresh MFC; the counter block is left for the assembling layer to
// re-point. Part of the
// warm-system recycling path.
func (m *MFC) Reset(fabric Fabric, ls []byte, cfg Config) {
	if cfg.QueueDepth <= 0 || cfg.Window <= 0 || cfg.ListWindow <= 0 {
		panic("mfc: invalid config")
	}
	// An MFC untouched since Reset must read like a fresh one: all-zero
	// histogram, not its whole run charged to level 0.
	m.occHist = m.occHist[:0]
	m.fabric, m.ls, m.cfg = fabric, ls, cfg
	m.faults, m.tracer = nil, nil
	m.traceSPE = 0
	m.tagStart = [NumTags]sim.Time{}
	m.seq = 0
	m.spuQueue, m.proxyQueue = 0, 0
	clear(m.active)
	m.active = m.active[:0]
	m.outstanding = 0
	m.nextIssue = 0
	m.tagCount = [NumTags]int{}
	m.tagRequested = [NumTags]int64{}
	m.tagDelivered = [NumTags]int64{}
	clear(m.tagWaiters)
	m.tagWaiters = m.tagWaiters[:0]
	clear(m.spaceSubs)
	m.spaceSubs = m.spaceSubs[:0]
	m.occLast = 0
}

// Stats returns a snapshot of the activity counters, computed from the
// counter block.
func (m *MFC) Stats() Stats {
	c := m.perf
	return Stats{
		Commands:     int64(c.Commands),
		Packets:      int64(c.Packets),
		Bytes:        int64(c.Bytes),
		ListElements: int64(c.ListElements),
		Atomics:      int64(c.Atomics),
	}
}

// validate checks a command against the MFC's architectural rules.
func (m *MFC) validate(c *Cmd) error {
	if c.Tag < 0 || c.Tag >= NumTags {
		return fmt.Errorf("%w: tag %d", ErrBadCommand, c.Tag)
	}
	if c.Fence && c.Barrier {
		return fmt.Errorf("%w: both fence and barrier", ErrBadCommand)
	}
	checkSpan := func(ls int, ea int64, size int) error {
		if err := checkSize(size); err != nil {
			return err
		}
		if size < 16 {
			if ea%int64(size) != 0 || ls%size != 0 {
				return fmt.Errorf("%w: %d-byte transfer must be naturally aligned (ea=%#x ls=%#x)", ErrBadCommand, size, ea, ls)
			}
		} else if ea%16 != 0 || ls%16 != 0 {
			return fmt.Errorf("%w: transfer must be 16-byte aligned (ea=%#x ls=%#x)", ErrBadCommand, ea, ls)
		}
		if ls < 0 || ls+size > len(m.ls) {
			return fmt.Errorf("%w: local store span %#x+%d out of range", ErrBadCommand, ls, size)
		}
		return nil
	}
	if c.Kind.IsList() {
		if len(c.List) == 0 || len(c.List) > MaxListElements {
			return fmt.Errorf("%w: list of %d elements", ErrBadCommand, len(c.List))
		}
		ls := c.LSAddr
		for _, el := range c.List {
			if err := checkSpan(ls, el.EA, el.Size); err != nil {
				return err
			}
			ls += el.Size
		}
		return nil
	}
	return checkSpan(c.LSAddr, c.EA, c.Size)
}

func checkSize(size int) error {
	if size <= 0 || size > MaxTransfer {
		return fmt.Errorf("%w: size %d", ErrBadCommand, size)
	}
	if size < 16 {
		switch size {
		case 1, 2, 4, 8:
			return nil
		default:
			return fmt.Errorf("%w: size %d (must be 1,2,4,8 or multiple of 16)", ErrBadCommand, size)
		}
	}
	if size%16 != 0 {
		return fmt.Errorf("%w: size %d not a multiple of 16", ErrBadCommand, size)
	}
	return nil
}

// Enqueue places a command on the SPU command queue. It returns
// ErrQueueFull when all slots are busy (the caller — the SPU channel
// interface — stalls and retries via OnSpace). done, if non-nil, fires
// when the command completes.
func (m *MFC) Enqueue(c Cmd, done sim.Callee) error {
	return m.enqueue(c, done, false)
}

// EnqueueProxy places a command on the PPE-side proxy queue.
func (m *MFC) EnqueueProxy(c Cmd, done sim.Callee) error {
	return m.enqueue(c, done, true)
}

func (m *MFC) enqueue(c Cmd, done sim.Callee, proxy bool) error {
	if err := m.validate(&c); err != nil {
		return err
	}
	if proxy {
		if m.proxyQueue >= m.cfg.ProxyDepth {
			return ErrQueueFull
		}
		m.proxyQueue++
	} else {
		if m.spuQueue >= m.cfg.QueueDepth {
			return ErrQueueFull
		}
		m.occAdvance(m.spuQueue)
		m.spuQueue++
		m.perf.SampleQueue(m.spuQueue)
	}
	m.seq++
	var st *cmdState
	if n := len(m.freeCmds); n > 0 {
		st = m.freeCmds[n-1]
		m.freeCmds[n-1] = nil
		m.freeCmds = m.freeCmds[:n-1]
	} else {
		st = new(cmdState)
	}
	*st = cmdState{cmd: c, seq: m.seq, proxy: proxy, done: done, readyAt: -1, issued: m.eng.Now(), m: m}
	st.isList = c.Kind.IsList()
	st.isGet = c.Kind.IsGet()
	st.plain = !c.Fence && !c.Barrier
	if st.isGet && m.taint != nil {
		// The command will write this LS span as its packets land; list
		// elements fill the store contiguously from LSAddr. Taint now,
		// conservatively — an aborted run leaves at most a clean span
		// marked dirty.
		m.taint(c.LSAddr, c.LSAddr+int(payloadBytes(&c)))
	}
	st.retire.st = st
	m.active = append(m.active, st)
	if m.tagCount[c.Tag] == 0 {
		m.tagStart[c.Tag] = m.eng.Now()
	}
	m.tagCount[c.Tag]++
	m.tagRequested[c.Tag] += payloadBytes(&c)
	m.perf.Commands++
	m.pump()
	return nil
}

// payloadBytes returns the bytes a command moves when it completes.
func payloadBytes(c *Cmd) int64 {
	if !c.Kind.IsList() {
		return int64(c.Size)
	}
	var total int64
	for _, el := range c.List {
		total += int64(el.Size)
	}
	return total
}

// OnSpace registers cb to fire once, the next time a queue slot frees.
// The SPU channel interface registers its reusable wake record, so
// registration allocates nothing.
func (m *MFC) OnSpace(cb sim.Callee) { m.spaceSubs = append(m.spaceSubs, cb) }

// WaitTags registers cb to fire when every tag group in mask has no
// incomplete commands. If already true, cb is scheduled immediately.
func (m *MFC) WaitTags(mask uint32, cb sim.Callee) {
	m.tagWaiters = append(m.tagWaiters, tagWaiter{mask: mask, cb: cb})
	m.checkTagWaiters()
}

// TagsComplete reports whether all tag groups in mask are idle.
func (m *MFC) TagsComplete(mask uint32) bool {
	for t := 0; t < NumTags; t++ {
		if mask&(1<<uint(t)) != 0 && m.tagCount[t] > 0 {
			return false
		}
	}
	return true
}

// checkTagWaiters posts every waiter whose tag groups are idle and keeps
// the rest, in order. Posting is asynchronous, so no waiter registers
// while the pass runs.
func (m *MFC) checkTagWaiters() {
	kept := m.tagWaiters[:0]
	for _, w := range m.tagWaiters {
		if m.TagsComplete(w.mask) {
			m.eng.PostCallee(w.cb, m.eng.Now())
		} else {
			kept = append(kept, w)
		}
	}
	clear(m.tagWaiters[len(kept):])
	m.tagWaiters = kept
}

// orderingSatisfied reports whether st's fence/barrier allows issue.
func (m *MFC) orderingSatisfied(st *cmdState) bool {
	if !st.cmd.Fence && !st.cmd.Barrier {
		return true
	}
	for _, other := range m.active {
		if other.seq >= st.seq {
			break
		}
		if st.cmd.Barrier || other.cmd.Tag == st.cmd.Tag {
			return false
		}
	}
	return true
}

// nextPacket computes the next bus packet of st without consuming it.
// ok is false when all packets have been issued.
func (st *cmdState) nextPacket() (lsOff int, ea int64, n int, newElem bool, ok bool) {
	c := &st.cmd
	if !c.Kind.IsList() {
		if st.offset >= c.Size {
			return 0, 0, 0, false, false
		}
		ea = c.EA + int64(st.offset)
		n = lineRemain(ea, c.Size-st.offset)
		return c.LSAddr + st.offset, ea, n, st.offset == 0, true
	}
	for st.listIdx < len(c.List) && c.List[st.listIdx].Size == 0 {
		st.listIdx++
	}
	if st.listIdx >= len(c.List) {
		return 0, 0, 0, false, false
	}
	el := c.List[st.listIdx]
	ea = el.EA + int64(st.listOff)
	n = lineRemain(ea, el.Size-st.listOff)
	return st.lsOff + c.LSAddr + st.listOff, ea, n, st.listOff == 0, true
}

// lineRemain returns the largest span at ea, up to remain bytes, that does
// not cross a 128-byte line boundary.
func lineRemain(ea int64, remain int) int {
	room := int(LineBytes - ea%LineBytes)
	if remain < room {
		return remain
	}
	return room
}

// advance consumes n bytes of st's current packet position.
func (st *cmdState) advance(n int) {
	c := &st.cmd
	if !c.Kind.IsList() {
		st.offset += n
		if st.offset >= c.Size {
			st.issuedAll = true
		}
		return
	}
	st.listOff += n
	if st.listOff >= c.List[st.listIdx].Size {
		st.lsOff += c.List[st.listIdx].Size
		st.listOff = 0
		st.listIdx++
		for st.listIdx < len(c.List) && c.List[st.listIdx].Size == 0 {
			st.listIdx++
		}
		if st.listIdx >= len(c.List) {
			st.issuedAll = true
		}
	}
}

// pump issues as many bus packets as the window and command ordering
// allow. It is called on every state change.
func (m *MFC) pump() {
	for m.outstanding < m.cfg.Window {
		st := m.pickCommand()
		if st == nil {
			return
		}
		lsOff, ea, n, newElem, ok := st.nextPacket()
		if !ok {
			return // defensive; pickCommand filters these
		}

		t := m.eng.Now()
		if m.nextIssue > t {
			t = m.nextIssue
		}
		// Injected command-bus token denial: the packet's issue slides by
		// the retry backoff, pushing later packets with it (the DMA
		// controller re-requests the token in order).
		if d := m.faults.MFCRetry(); d > 0 {
			t += d
			m.perf.Retries++
		}
		if !st.started {
			st.started = true
			t += m.cfg.SetupCycles
			st.firstPacket = t
		}
		if st.isList && newElem {
			t += m.cfg.ListElemCycles
			m.perf.ListElements++
		}
		m.nextIssue = t + m.cfg.IssueInterval

		st.advance(n)
		st.inflight++
		st.totalIssued++
		m.outstanding++
		m.perf.Packets++
		m.perf.Bytes += uint64(n)

		if st.isGet {
			m.fabric.ReadEA(ea, n, t, m.ls[lsOff:lsOff+n], st)
		} else {
			m.fabric.WriteEA(ea, n, t, m.ls[lsOff:lsOff+n], st)
		}
	}
}

// pickCommand returns the eligible command to issue the next packet from.
// The DMA controller works on queued commands concurrently, so selection
// interleaves: among commands with unissued packets whose ordering and
// per-command window constraints are satisfied, pick the one with the
// fewest packets in flight (ties broken by queue order).
func (m *MFC) pickCommand() *cmdState {
	var best *cmdState
	listWindow := m.cfg.ListWindow
	for _, st := range m.active {
		if st.issuedAll {
			continue
		}
		if st.isList && st.inflight >= listWindow {
			continue
		}
		if !st.plain && !m.orderingSatisfied(st) {
			// Only this command waits; later independent commands may
			// bypass it (fences and barriers order the tagged command
			// against earlier ones, not the whole queue).
			continue
		}
		if best == nil || st.inflight < best.inflight {
			best = st
			if st.inflight == 0 {
				// Nothing can strictly beat zero packets in flight, and
				// ties always go to the earliest queue position, which
				// this command holds among the zeros.
				break
			}
		}
	}
	return best
}

func (m *MFC) complete(st *cmdState) {
	for i, s := range m.active {
		if s == st {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	if st.proxy {
		m.proxyQueue--
	} else {
		m.occAdvance(m.spuQueue)
		m.spuQueue--
	}
	m.tagCount[st.cmd.Tag]--
	m.tagDelivered[st.cmd.Tag] += payloadBytes(&st.cmd)
	m.tracer.Emit(trace.MFCTrack(m.traceSPE), trace.KindDMA,
		st.issued, m.eng.Now(), payloadBytes(&st.cmd), int64(st.cmd.Tag),
		int64(st.cmd.Kind), int64(st.firstPacket))
	if m.tagCount[st.cmd.Tag] == 0 {
		m.tracer.Emit(trace.TagTrack(m.traceSPE), trace.KindTag,
			m.tagStart[st.cmd.Tag], m.eng.Now(), int64(st.cmd.Tag), 0, 0, 0)
	}
	m.checkTagWaiters()
	if st.done != nil {
		m.eng.PostCallee(st.done, m.eng.Now())
	}
	// Posting is asynchronous, so no subscriber re-registers while the
	// drained list is still being walked.
	for _, cb := range m.spaceSubs {
		m.eng.PostCallee(cb, m.eng.Now())
	}
	clear(m.spaceSubs)
	m.spaceSubs = m.spaceSubs[:0]
	// The last packet has retired and every reference above is by value:
	// the record can be recycled for a future enqueue.
	*st = cmdState{}
	m.freeCmds = append(m.freeCmds, st)
}

// ConservationError reports a violated data-conservation invariant at
// scenario teardown: bytes requested must equal bytes delivered in every
// tag group, with no commands or packets left in flight.
type ConservationError struct {
	Problems []string
}

func (e *ConservationError) Error() string {
	return "mfc: conservation violated: " + strings.Join(e.Problems, "; ")
}

// CheckConservation verifies the teardown invariants: every enqueued
// command completed, no bus packets are outstanding, and each tag group
// delivered exactly the bytes requested of it. Faulty runs must pass this
// too — fault injection delays data, it never loses it.
func (m *MFC) CheckConservation() error {
	var problems []string
	if n := len(m.active); n > 0 {
		problems = append(problems, fmt.Sprintf("%d commands still active", n))
	}
	if m.outstanding > 0 {
		problems = append(problems, fmt.Sprintf("%d bus packets in flight", m.outstanding))
	}
	for t := 0; t < NumTags; t++ {
		if m.tagRequested[t] != m.tagDelivered[t] {
			problems = append(problems, fmt.Sprintf(
				"tag %d: requested %d bytes, delivered %d", t, m.tagRequested[t], m.tagDelivered[t]))
		}
	}
	if len(problems) > 0 {
		return &ConservationError{Problems: problems}
	}
	return nil
}

// Diagnose describes in-flight MFC state for watchdog diagnostics; it
// returns nil when the MFC is idle.
func (m *MFC) Diagnose() []string {
	if len(m.active) == 0 && m.outstanding == 0 && len(m.tagWaiters) == 0 {
		return nil
	}
	var busyTags []string
	for t := 0; t < NumTags; t++ {
		if m.tagCount[t] > 0 {
			busyTags = append(busyTags, fmt.Sprintf("%d(%d cmds, %d/%d bytes)",
				t, m.tagCount[t], m.tagDelivered[t], m.tagRequested[t]))
		}
	}
	line := fmt.Sprintf("%d active commands, %d packets in flight, %d tag waiters",
		len(m.active), m.outstanding, len(m.tagWaiters))
	if len(busyTags) > 0 {
		line += ", outstanding tags: " + strings.Join(busyTags, " ")
	}
	return []string{line}
}
