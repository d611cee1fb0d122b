// Package spe models a Synergistic Processor Element: the SPU core with
// its 256 KB Local Store, the channel interface to the MFC's DMA engine,
// mailboxes, and the decrementer.
//
// SPU "programs" are Go functions run as simulator coroutines. They are
// charged simulated cycles for local store accesses and for the channel
// operations that program the MFC, and they block on simulated DMA
// completion — exactly the structure of the paper's microbenchmark kernels
// (issue a batch of DMA commands, delay the tag-group wait as long as
// possible, measure with the decrementer).
package spe

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cellbe/internal/eib"
	"cellbe/internal/mfc"
	"cellbe/internal/sim"
)

// LocalStoreBytes is the size of an SPE's local store.
const LocalStoreBytes = 256 * 1024

// Config holds SPU timing parameters (CPU cycles).
type Config struct {
	// LoadCost / StoreCost give the cycles per local store access by
	// element size. The SPU ISA has only 16-byte loads and stores: a
	// full quadword streams at 1 access/cycle (peak 33.6 GB/s at
	// 2.1 GHz); narrower accesses pay rotate/mask (loads) or
	// read-modify-write (stores) overhead.
	LoadCost  AccessCosts
	StoreCost AccessCosts
	// ChannelCycles is the cost of one SPU channel write/read. Issuing a
	// DMA command takes several (target address, EA high/low, size, tag,
	// opcode).
	ChannelCycles sim.Time
	// DMAIssueChannels is the number of channel operations per DMA
	// command issue.
	DMAIssueChannels int
}

// AccessCosts maps element sizes 1,2,4,8,16 to a per-access cycle cost.
type AccessCosts struct {
	C1, C2, C4, C8, C16 sim.Time
}

// Cost returns the per-access cost for an element size.
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
	panic(fmt.Sprintf("spe: unsupported element size %d", size))
}

// DefaultConfig returns SPU parameters calibrated to §4.2.2 of the paper:
// only 16-byte accesses reach the 33.6 GB/s local store peak; every
// narrower access pays quadword extract/merge overhead.
func DefaultConfig() Config {
	return Config{
		LoadCost:         AccessCosts{C1: 3, C2: 3, C4: 2, C8: 2, C16: 1},
		StoreCost:        AccessCosts{C1: 4, C2: 4, C4: 3, C8: 3, C16: 1},
		ChannelCycles:    2,
		DMAIssueChannels: 6,
	}
}

// SPE is one Synergistic Processor Element.
type SPE struct {
	eng   *sim.Engine
	cfg   Config
	index int // logical index as seen by the program
	ramp  eib.RampID
	ls    []byte
	dma   *mfc.MFC

	// Mailboxes: the PPE writes the 4-deep inbox, the SPU writes the
	// 1-deep outbox.
	Inbox  *Mailbox
	Outbox *Mailbox

	// Signal notification registers (OR mode).
	snrs   [2]snr
	sigSeq int

	// Dirty span of ls: every byte outside [dirtyLo, dirtyHi) is
	// guaranteed zero. Writers widen it (see Taint); recycling a buffer
	// zeroes only the span instead of the whole 256 KiB store, which is
	// what makes per-grid-point system reuse cheap in sweeps — a pair
	// kernel at small chunk sizes dirties a fraction of the store.
	dirtyLo, dirtyHi int
}

// lsSlab is a pooled local-store buffer together with the dirty span its
// previous owner accumulated, so reuse zeroes only what was written.
type lsSlab struct {
	b      []byte
	lo, hi int
}

// lsPool recycles local-store buffers across SPE lifetimes. A sweep builds
// and discards a full system per grid point, and at 256 KiB per SPE the
// stores dominate its allocation volume (and with it, GC frequency);
// recycling trades that for a memclr of the reused buffer's dirty span.
var lsPool sync.Pool

// liveLS counts local-store buffers handed out by newLS and not yet given
// back by Release.
var liveLS atomic.Int64

// LiveLocalStores reports how many local-store buffers are outstanding:
// every buffer an SPE acquired, less those its Release returned (an SPE
// dropped without Release stays counted). A batch driver that releases
// every system it builds leaves it where it found it, whatever the pool
// did with the buffers meanwhile.
func LiveLocalStores() int64 { return liveLS.Load() }

func newLS() []byte {
	liveLS.Add(1)
	if v := lsPool.Get(); v != nil {
		slab := v.(*lsSlab)
		if slab.lo < slab.hi {
			clear(slab.b[slab.lo:slab.hi])
		}
		return slab.b
	}
	return make([]byte, LocalStoreBytes)
}

// Release returns the SPE's local store to the shared buffer pool. The
// caller promises the SPE is dead: no scenario, DMA or simulation event
// will touch it afterwards.
func (s *SPE) Release() {
	if s.ls != nil {
		lsPool.Put(&lsSlab{b: s.ls, lo: s.dirtyLo, hi: s.dirtyHi})
		s.ls = nil
		liveLS.Add(-1)
	}
}

// New builds an SPE. fabric is the routing layer (provided by the cell
// package); mfcCfg configures the DMA engine.
func New(eng *sim.Engine, index int, ramp eib.RampID, fabric mfc.Fabric, cfg Config, mfcCfg mfc.Config) *SPE {
	s := &SPE{
		eng:     eng,
		cfg:     cfg,
		index:   index,
		ramp:    ramp,
		ls:      newLS(),
		dirtyLo: LocalStoreBytes,
	}
	s.dma = mfc.New(eng, fabric, s.ls, mfcCfg)
	s.dma.SetLSTaint(s.Taint)
	s.Inbox = NewMailbox(eng, 4)
	s.Outbox = NewMailbox(eng, 1)
	return s
}

// Reset returns the SPE to the state New would build for the given
// binding, keeping the engine, the logical index, the local store buffer
// (re-zeroing only its dirty span) and the MFC record. It exists for
// warm-system recycling: a reset SPE must be observationally identical to
// a fresh one.
func (s *SPE) Reset(ramp eib.RampID, fabric mfc.Fabric, cfg Config, mfcCfg mfc.Config) {
	s.cfg = cfg
	s.ramp = ramp
	if s.ls == nil {
		s.ls = newLS()
	} else if s.dirtyLo < s.dirtyHi {
		clear(s.ls[s.dirtyLo:s.dirtyHi])
	}
	s.dirtyLo, s.dirtyHi = LocalStoreBytes, 0
	s.dma.Reset(fabric, s.ls, mfcCfg)
	s.dma.SetLSTaint(s.Taint)
	s.Inbox.Reset(s.eng)
	s.Outbox.Reset(s.eng)
	s.snrs = [2]snr{}
	s.sigSeq = 0
}

// Taint records that [lo, hi) of the local store may now hold non-zero
// bytes. Every write path into the store must pass through it (or through
// LS/LSWrite, which call it); a missed taint would let a recycled buffer
// leak stale bytes into the next run.
func (s *SPE) Taint(lo, hi int) {
	if lo < s.dirtyLo {
		s.dirtyLo = lo
	}
	if hi > s.dirtyHi {
		s.dirtyHi = hi
	}
}

// Ramp returns the SPE's physical position on the EIB.
func (s *SPE) Ramp() eib.RampID { return s.ramp }

// LS returns the local store contents. The caller may write through the
// returned slice, so the whole store is conservatively marked dirty; the
// packet hot path uses LSRead/LSWrite instead to keep the span tight.
func (s *SPE) LS() []byte {
	s.Taint(0, LocalStoreBytes)
	return s.ls
}

// LSRead returns [off, off+n) of the local store for reading only.
func (s *SPE) LSRead(off, n int) []byte { return s.ls[off : off+n] }

// LSWrite returns [off, off+n) of the local store for writing, marking
// exactly that span dirty.
func (s *SPE) LSWrite(off, n int) []byte {
	s.Taint(off, off+n)
	return s.ls[off : off+n]
}

// MFC returns the SPE's memory flow controller (for proxy commands and
// statistics).
func (s *SPE) MFC() *mfc.MFC { return s.dma }

// DMAIssueCycles returns the channel-write cycles charged to program one
// DMA command (target address, EA high/low, size, tag, opcode).
func (s *SPE) DMAIssueCycles() sim.Time {
	return sim.Time(s.cfg.DMAIssueChannels) * s.cfg.ChannelCycles
}

// TagStatusCycles returns the channel cycles charged to request and read
// tag-group completion status (MFC_WriteTagUpdateRequest + read).
func (s *SPE) TagStatusCycles() sim.Time { return 2 * s.cfg.ChannelCycles }

// Run spawns fn as the SPU program of this SPE.
func (s *SPE) Run(name string, fn func(ctx *Context)) *sim.Process {
	return sim.Spawn(s.eng, name, func(p *sim.Process) {
		fn(&Context{Process: p, spe: s})
	})
}

// Context is the execution context handed to an SPU program. It embeds the
// simulator process, so programs can also Wait for raw cycle counts to
// model computation.
type Context struct {
	*sim.Process
	spe *SPE
}

// SPE returns the element the program runs on.
func (c *Context) SPE() *SPE { return c.spe }

// Decrementer returns the current time in CPU cycles — the SPU timebase
// register the paper uses to measure DMA bandwidth.
func (c *Context) Decrementer() sim.Time { return c.Now() }

// issueCost charges the channel writes needed to program one DMA command.
func (c *Context) issueCost() {
	c.Wait(c.spe.DMAIssueCycles())
}

// CommandError is the typed panic value raised when an SPU program
// enqueues an invalid DMA command (bad size, alignment, tag or list).
// The engine wraps it in a *sim.ProcessPanic, which simulation drivers
// (cell.System.RunChecked, the CLIs) recover into a clean error message.
type CommandError struct {
	SPE int
	Err error
}

func (e *CommandError) Error() string { return fmt.Sprintf("spe%d: %v", e.SPE, e.Err) }

// Unwrap exposes the underlying mfc error to errors.Is/As.
func (e *CommandError) Unwrap() error { return e.Err }

// enqueue blocks until the MFC accepts the command (the channel write
// stalls while the command queue is full), then returns; completion is
// tracked by the command's tag group.
func (c *Context) enqueue(cmd mfc.Cmd) {
	c.issueCost()
	for {
		err := c.spe.dma.Enqueue(cmd, nil)
		if err == nil {
			return
		}
		if err != mfc.ErrQueueFull {
			panic(&CommandError{SPE: c.spe.index, Err: err})
		}
		c.WaitCallee(c.spe.dma.OnSpace)
	}
}

// Get enqueues a DMA transfer of size bytes from effective address ea into
// local store address lsAddr, under the given tag group.
func (c *Context) Get(lsAddr int, ea int64, size, tag int) {
	c.enqueue(mfc.Cmd{Kind: mfc.Get, Tag: tag, LSAddr: lsAddr, EA: ea, Size: size})
}

// Put enqueues a DMA transfer from local store to effective address space.
func (c *Context) Put(lsAddr int, ea int64, size, tag int) {
	c.enqueue(mfc.Cmd{Kind: mfc.Put, Tag: tag, LSAddr: lsAddr, EA: ea, Size: size})
}

// GetF/PutF are the fenced variants; GetB/PutB the barriered ones.
func (c *Context) GetF(lsAddr int, ea int64, size, tag int) {
	c.enqueue(mfc.Cmd{Kind: mfc.Get, Tag: tag, LSAddr: lsAddr, EA: ea, Size: size, Fence: true})
}

// PutF enqueues a fenced Put (ordered after prior same-tag commands).
func (c *Context) PutF(lsAddr int, ea int64, size, tag int) {
	c.enqueue(mfc.Cmd{Kind: mfc.Put, Tag: tag, LSAddr: lsAddr, EA: ea, Size: size, Fence: true})
}

// GetB enqueues a barriered Get (ordered after all prior commands).
func (c *Context) GetB(lsAddr int, ea int64, size, tag int) {
	c.enqueue(mfc.Cmd{Kind: mfc.Get, Tag: tag, LSAddr: lsAddr, EA: ea, Size: size, Barrier: true})
}

// PutB enqueues a barriered Put.
func (c *Context) PutB(lsAddr int, ea int64, size, tag int) {
	c.enqueue(mfc.Cmd{Kind: mfc.Put, Tag: tag, LSAddr: lsAddr, EA: ea, Size: size, Barrier: true})
}

// GetList enqueues a list-directed Get.
func (c *Context) GetList(lsAddr int, list []mfc.ListElem, tag int) {
	c.enqueue(mfc.Cmd{Kind: mfc.GetList, Tag: tag, LSAddr: lsAddr, List: list})
}

// PutList enqueues a list-directed Put.
func (c *Context) PutList(lsAddr int, list []mfc.ListElem, tag int) {
	c.enqueue(mfc.Cmd{Kind: mfc.PutList, Tag: tag, LSAddr: lsAddr, List: list})
}

// WaitTag blocks until tag group t has no incomplete commands.
func (c *Context) WaitTag(t int) { c.WaitTagMask(1 << uint(t)) }

// WaitTagMask blocks until all tag groups in mask are idle (the
// MFC_WriteTagMask + MFC_WriteTagUpdateRequest + read-status sequence).
func (c *Context) WaitTagMask(mask uint32) {
	c.Wait(c.spe.TagStatusCycles())
	if c.spe.dma.TagsComplete(mask) {
		return
	}
	c.WaitCallee(func(cb sim.Callee) { c.spe.dma.WaitTags(mask, cb) })
}

// LSOp selects a local store streaming operation.
type LSOp int

// Local store streaming operations.
const (
	LSLoad LSOp = iota
	LSStore
	LSCopy
)

// StreamLS charges the cycles for a tight SPU loop that loads, stores, or
// copies totalBytes of local store in elemSize-byte accesses, and returns
// the cycles spent. It models the compiler-generated unrolled loops of
// §4.2.2: time is per-access cost only, since the LS is a flat SRAM with
// no cache effects.
func (c *Context) StreamLS(op LSOp, elemSize int, totalBytes int) sim.Time {
	if totalBytes <= 0 || elemSize <= 0 {
		panic("spe: StreamLS with non-positive size")
	}
	n := sim.Time(totalBytes / elemSize)
	var per sim.Time
	switch op {
	case LSLoad:
		per = c.spe.cfg.LoadCost.Cost(elemSize)
	case LSStore:
		per = c.spe.cfg.StoreCost.Cost(elemSize)
	case LSCopy:
		per = c.spe.cfg.LoadCost.Cost(elemSize) + c.spe.cfg.StoreCost.Cost(elemSize)
	default:
		panic("spe: unknown LS op")
	}
	d := n * per
	c.Wait(d)
	return d
}

// Mailbox is a bounded 32-bit message queue between the PPE and an SPU.
type Mailbox struct {
	eng     *sim.Engine
	cap     int
	queue   []uint32
	readers []sim.Callee
	writers []sim.Callee
}

// NewMailbox returns a mailbox holding up to capacity entries.
func NewMailbox(eng *sim.Engine, capacity int) *Mailbox {
	return &Mailbox{eng: eng, cap: capacity}
}

// Reset empties the mailbox and drops any parked readers and writers,
// reusing the queue and waiter backings for the next run.
func (m *Mailbox) Reset(eng *sim.Engine) {
	m.eng = eng
	m.queue = m.queue[:0]
	clear(m.readers)
	m.readers = m.readers[:0]
	clear(m.writers)
	m.writers = m.writers[:0]
}

// TryWrite appends v if there is room, reporting success.
func (m *Mailbox) TryWrite(v uint32) bool {
	if len(m.queue) >= m.cap {
		return false
	}
	m.queue = append(m.queue, v)
	wakeAll(m.eng, &m.readers)
	return true
}

// TryRead pops the oldest message, reporting success.
func (m *Mailbox) TryRead() (uint32, bool) {
	if len(m.queue) == 0 {
		return 0, false
	}
	v := m.queue[0]
	m.queue = m.queue[1:]
	wakeAll(m.eng, &m.writers)
	return v, true
}

// wakeAll posts every waiter in *subs, in order, and empties the list,
// keeping its backing. Posting is asynchronous, so no waiter registers
// while the loop runs.
func wakeAll(eng *sim.Engine, subs *[]sim.Callee) {
	for _, cb := range *subs {
		eng.PostCallee(cb, eng.Now())
	}
	clear(*subs)
	*subs = (*subs)[:0]
}

// Read blocks the process until a message is available.
func (m *Mailbox) Read(p *sim.Process) uint32 {
	for {
		if v, ok := m.TryRead(); ok {
			return v
		}
		p.WaitCallee(func(cb sim.Callee) { m.readers = append(m.readers, cb) })
	}
}

// Write blocks the process until there is room, then appends v.
func (m *Mailbox) Write(p *sim.Process, v uint32) {
	for {
		if m.TryWrite(v) {
			return
		}
		p.WaitCallee(func(cb sim.Callee) { m.writers = append(m.writers, cb) })
	}
}

// ReadMailbox is a convenience for SPU programs reading their inbox.
func (c *Context) ReadMailbox() uint32 { return c.spe.Inbox.Read(c.Process) }

// WriteMailbox is a convenience for SPU programs writing their outbox.
func (c *Context) WriteMailbox(v uint32) { c.spe.Outbox.Write(c.Process, v) }
