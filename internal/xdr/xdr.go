// Package xdr models the Cell blade's main memory system: the on-chip
// Memory Interface Controller (MIC) in front of the local XDR DRAM bank,
// and the second processor's bank reached through the IOIF0 interface.
//
// The experimental platform of the paper is a dual-Cell blade booted with
// maxcpus=2: only the first chip runs code, but Linux (NUMA enabled, 64 KB
// pages) spreads allocations across both 256 MB banks. The local bank is
// reachable at 16.8 GB/s through the MIC; the remote bank is behind the
// 7 GB/s IOIF link. Both caps, the DRAM service time per 128-byte line,
// refresh, and read/write turnaround are modeled; together with the MFC's
// bounded outstanding-transfer window they produce the paper's headline
// result that a single SPE sustains only ~10 GB/s while two or more SPEs
// reach ~20 GB/s by hitting both banks concurrently.
package xdr

import (
	"fmt"

	"cellbe/internal/eib"
	"cellbe/internal/fault"
	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
	"cellbe/internal/trace"
)

// LineBytes is the coherence/DMA granularity: requests never cross a
// 128-byte boundary.
const LineBytes = 128

// Config holds the memory system parameters, in CPU cycles at 2.1 GHz.
type Config struct {
	// TotalBytes is the size of the physical address space (512 MB).
	TotalBytes int64
	// PageBytes is the OS page size used for NUMA interleaving (64 KB).
	PageBytes int64
	// Interleave spreads page placement across the two banks (the
	// measured system's behaviour: the paper's multi-SPE results exceed
	// the single-bank 16.8 GB/s, proving both banks are hit). When
	// false, the lower half of the address space is bank 0 and the upper
	// half bank 1.
	Interleave bool
	// RemotePagesPer10 sets the interleave ratio: how many pages out of
	// every 10 land on the remote bank. The default 3 matches the
	// capacity ratio of the two paths (16.8 : 7 GB/s), which is the
	// split at which the paper's aggregate numbers (≈10 GB/s for one
	// SPE, ≈20 for two, ≈23 peak) are simultaneously achievable — a
	// Linux NUMA allocation that favours the local node.
	RemotePagesPer10 int

	// LocalServiceCycles is the local bank's occupancy per 128-byte line:
	// 16 cycles = 16.8 GB/s at 2.1 GHz.
	LocalServiceCycles sim.Time
	// LocalReadLatency is the extra pipelined latency from bank issue to
	// first data (row activation, XDR transfer, MIC queues).
	LocalReadLatency sim.Time
	// LocalWriteLatency is the corresponding posted-write drain latency.
	LocalWriteLatency sim.Time

	// RemoteServiceCycles is the IOIF link occupancy per 128-byte line:
	// ~38 cycles = 7 GB/s at 2.1 GHz. The remote bank itself is faster
	// than the link, so the link is the binding constraint.
	RemoteServiceCycles sim.Time
	// RemoteExtraLatency is added to every remote access (crossing the
	// IOIF and the second chip's EIB and MIC).
	RemoteExtraLatency sim.Time

	// TurnaroundCycles is the penalty when a bank switches between read
	// and write streams. The MIC gathers and reorders accesses, so the
	// per-switch cost visible at line granularity is small.
	TurnaroundCycles sim.Time
	// RefreshPeriod/RefreshCycles: every RefreshPeriod cycles the bank is
	// unavailable for RefreshCycles (a few percent of time, the paper's
	// "memory having to do other operations, like refreshing").
	RefreshPeriod sim.Time
	RefreshCycles sim.Time

	// NoisePeriod/NoiseCycles inject OS/runtime interference on the local
	// bank with the same priority mechanism as refresh. Zero (default)
	// disables it; the paper's warm-up discipline exists precisely to
	// exclude such effects, so this is a failure-injection knob.
	NoisePeriod sim.Time
	NoiseCycles sim.Time
}

// DefaultConfig returns parameters calibrated for the paper's blade.
func DefaultConfig() Config {
	return Config{
		TotalBytes:          512 << 20,
		PageBytes:           64 << 10,
		Interleave:          true,
		RemotePagesPer10:    3,
		LocalServiceCycles:  16,
		LocalReadLatency:    250,
		LocalWriteLatency:   220,
		RemoteServiceCycles: 38,
		RemoteExtraLatency:  250,
		TurnaroundCycles:    2,
		RefreshPeriod:       8400,
		RefreshCycles:       180,
	}
}

type opKind int

const (
	opRead opKind = iota
	opWrite
)

type bank struct {
	srv         *sim.Server
	lastOp      opKind
	cfg         *Config
	faults      *fault.Injector
	tracer      *trace.Tracer
	track       trace.Track
	service     sim.Time
	nextRefresh sim.Time
	nextNoise   sim.Time
	noisy       bool
	perf        *perfctr.BankCounters
}

// BankStats is a view of one bank's counter block.
type BankStats struct {
	ReadBytes  int64
	WriteBytes int64
	Requests   int64
	Refreshes  int64
}

// Memory is the two-bank memory system attached to the EIB.
type Memory struct {
	eng    *sim.Engine
	bus    *eib.EIB
	cfg    Config
	banks  [2]*bank
	ram    *RAM
	opFree *memOp // free list of line-access records (the engine is single-threaded)
}

// SetFaults attaches a fault injector to both banks (nil disables
// injection). Wired by the cell package at system assembly.
func (m *Memory) SetFaults(inj *fault.Injector) {
	for _, b := range m.banks {
		b.faults = inj
	}
}

// SetTracer attaches an event tracer to both banks (nil disables tracing,
// the default). Wired by the cell package at system assembly, like
// SetFaults.
func (m *Memory) SetTracer(tr *trace.Tracer) {
	for i, b := range m.banks {
		b.tracer = tr
		b.track = trace.BankTrack(i)
	}
}

// SetPerf points both banks at pc's per-bank counters (New starts them
// on a private block). Wired by the cell package at system assembly,
// before the first event.
func (m *Memory) SetPerf(pc *perfctr.Counters) {
	for i, b := range m.banks {
		b.perf = &pc.XDR[i]
	}
}

// Reset returns the memory system to the state New(eng, bus, cfg) would
// build, keeping both banks' server records (with their queue capacity)
// and the RAM's line storage (emptied and sized to TotalBytes).
// Attachments (faults, tracer) are cleared as on a fresh Memory; the
// counter block is left for the assembling layer to re-point. Part of the
// warm-system recycling path.
func (m *Memory) Reset(cfg Config) {
	m.ram.Reset(cfg.TotalBytes)
	m.cfg = cfg
	for i, b := range m.banks {
		b.srv.Reset()
		b.lastOp = 0
		b.faults = nil
		b.tracer = nil
		b.track = 0
		if i == 0 {
			b.service = cfg.LocalServiceCycles
		} else {
			b.service = cfg.RemoteServiceCycles
		}
		b.nextRefresh, b.nextNoise = 0, 0
	}
}

// New builds the memory system on the given bus.
func New(eng *sim.Engine, bus *eib.EIB, cfg Config) *Memory {
	m := &Memory{eng: eng, bus: bus, cfg: cfg, ram: NewRAM(cfg.TotalBytes, LineBytes)}
	own := new([perfctr.NumBanks]perfctr.BankCounters)
	for i := range m.banks {
		b := &bank{srv: sim.NewServer(eng), cfg: &m.cfg, perf: &own[i]}
		if i == 0 {
			b.service = cfg.LocalServiceCycles
		} else {
			b.service = cfg.RemoteServiceCycles
		}
		m.banks[i] = b
	}
	// OS interference lands on the local bank: that is where the kernel
	// and daemons live on the measured blade.
	m.banks[0].noisy = true
	return m
}

// applyRefresh lazily charges refresh time: whenever the bank is used past
// its next refresh point, it loses RefreshCycles with priority over the
// queued accesses. Refreshes falling in idle periods delay nobody and are
// skipped, so the simulation needs no recurring events.
func (b *bank) applyRefresh(now sim.Time) {
	if b.cfg.RefreshPeriod <= 0 || b.cfg.RefreshCycles <= 0 {
		return
	}
	if now >= b.nextRefresh {
		b.perf.Refresh()
		b.srv.Reserve(now, b.cfg.RefreshCycles)
		b.nextRefresh = now + b.cfg.RefreshPeriod
	}
}

// applyNoise injects configured OS interference the same lazy way.
func (b *bank) applyNoise(now sim.Time) {
	if !b.noisy || b.cfg.NoisePeriod <= 0 || b.cfg.NoiseCycles <= 0 {
		return
	}
	if now >= b.nextNoise {
		b.srv.Reserve(now, b.cfg.NoiseCycles)
		b.nextNoise = now + b.cfg.NoisePeriod
	}
}

// RAM returns the byte-addressable storage backing the memory system.
func (m *Memory) RAM() *RAM { return m.ram }

// Config returns the configuration in use.
func (m *Memory) Config() Config { return m.cfg }

// BankStats returns activity counters for bank 0 (local) or 1 (remote).
// Requests counts bank accesses at issue; at the end of a run every one
// has occupied the bank.
func (m *Memory) BankStats(i int) BankStats {
	c := m.banks[i].perf
	return BankStats{
		ReadBytes:  int64(c.ReadBytes),
		WriteBytes: int64(c.WriteBytes),
		Requests:   int64(c.RowHits + c.RowMisses),
		Refreshes:  int64(c.RefreshStalls),
	}
}

// Bank returns which bank (0 local, 1 remote) owns addr. Interleaved
// placement scatters RemotePagesPer10 of every 10 pages onto the remote
// bank, evenly spread (the multiply-by-3 walk visits every residue).
func (m *Memory) Bank(addr int64) int {
	if m.cfg.Interleave {
		idx := addr / m.cfg.PageBytes
		if int((idx*3+3)%10) < m.cfg.RemotePagesPer10 {
			return 1
		}
		return 0
	}
	if addr < m.cfg.TotalBytes/2 {
		return 0
	}
	return 1
}

// Ramp returns the EIB ramp that sources/sinks data for addr's bank: the
// MIC for the local bank, IOIF0 for the remote one.
func (m *Memory) Ramp(addr int64) eib.RampID {
	if m.Bank(addr) == 0 {
		return eib.RampMIC
	}
	return eib.RampIOIF0
}

// RequestError is a typed rejection of a malformed line request: wrong
// size, out-of-range address, or a span crossing a line boundary. CLI
// layers print it as a clean message; inside the model it signals a
// broken invariant (the MFC validates commands before packetizing).
type RequestError struct {
	Addr   int64
	Bytes  int
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("xdr: request %#x+%d: %s", e.Addr, e.Bytes, e.Reason)
}

// CheckSpan validates a line request against the address space, returning
// a *RequestError describing the first violated rule, or nil.
func (m *Memory) CheckSpan(addr int64, n int) error {
	if n <= 0 || n > LineBytes {
		return &RequestError{Addr: addr, Bytes: n, Reason: fmt.Sprintf("size must be 1..%d", LineBytes)}
	}
	if addr < 0 || addr+int64(n) > m.cfg.TotalBytes {
		return &RequestError{Addr: addr, Bytes: n, Reason: "address out of range"}
	}
	if addr/LineBytes != (addr+int64(n)-1)/LineBytes {
		return &RequestError{Addr: addr, Bytes: n, Reason: fmt.Sprintf("crosses a %d-byte line", LineBytes)}
	}
	return nil
}

// checkSpan enforces the line-request invariant on the internal Read and
// Write paths. The callers (the MFCs, the PPE cache) validate user input
// before packetizing, so a violation here is a model bug: panic with the
// typed error so drivers that recover process panics still surface a
// structured message.
func (m *Memory) checkSpan(addr int64, n int) {
	if err := m.CheckSpan(addr, n); err != nil {
		panic(err)
	}
}

// occupy queues one line access on the bank; cb.Call(start) fires when
// the bank occupation ends.
func (b *bank) occupy(kind opKind, now sim.Time, cb sim.Callee) {
	b.applyRefresh(now)
	b.applyNoise(now)
	// Injected bank-busy stall: like a refresh collision, the bank is
	// stolen with priority over the queued accesses.
	if d := b.faults.XDRStall(); d > 0 {
		b.srv.Reserve(now, d)
	}
	dur := b.service
	if b.lastOp != kind {
		dur += b.cfg.TurnaroundCycles
		b.lastOp = kind
	}
	b.srv.Request(dur, cb)
}

// memOp is the pooled record of one line access. It walks the access's
// three steps — EIB command, bank occupancy and data transfer (read), or
// command, data transfer and bank occupancy (write) — as successive Calls,
// each scheduled where the per-step closure it replaces was, so an access
// allocates nothing and the event order is unchanged. Records recycle
// through Memory's free list and are released before done fires.
type memOp struct {
	m         *Memory
	bk        *bank
	kind      opKind
	requestor eib.RampID
	ramp      eib.RampID
	addr      int64
	n         int
	lat       sim.Time
	buf       []byte // dst for reads, src for writes; nil for timing-only
	done      sim.Callee
	phase     int
	next      *memOp // free-list link
}

// Phases of a memOp: the step its next Call performs.
const (
	phaseCommand = iota // command granted: start the first resource step
	phaseSecond         // read: bank done, start data; write: data landed, occupy bank
	phaseLast           // read: data arrived; write: bank done
)

// start takes a record for one line access and schedules its command
// phase.
func (m *Memory) start(kind opKind, requestor eib.RampID, addr int64, n int, earliest sim.Time, buf []byte, done sim.Callee) {
	m.checkSpan(addr, n)
	op := m.opFree
	if op == nil {
		op = &memOp{m: m}
	} else {
		m.opFree = op.next
	}
	b := m.Bank(addr)
	op.bk, op.kind, op.requestor, op.ramp = m.banks[b], kind, requestor, m.Ramp(addr)
	op.addr, op.n, op.buf, op.done, op.phase = addr, n, buf, done, phaseCommand
	if kind == opRead {
		op.lat = m.cfg.LocalReadLatency
	} else {
		op.lat = m.cfg.LocalWriteLatency
	}
	if b == 1 {
		op.lat += m.cfg.RemoteExtraLatency
	}
	op.bk.perf.Access(addr)
	ready := m.bus.Command(earliest)
	m.eng.AtCallee(ready, op, ready)
}

// release returns op to the free list and hands back its completion.
func (op *memOp) release() sim.Callee {
	m, done := op.m, op.done
	*op = memOp{m: m, next: m.opFree}
	m.opFree = op
	return done
}

// bankDone emits the bank's trace span for the occupation that started at
// start and ends now.
func (op *memOp) bankDone(start sim.Time) {
	op.bk.tracer.Emit(op.bk.track, trace.KindBank, start, op.m.eng.Now(), int64(op.n), int64(op.kind), 0, 0)
}

func (op *memOp) Call(at sim.Time) {
	m, bk := op.m, op.bk
	now := m.eng.Now()
	phase := op.phase
	op.phase++
	switch {
	case phase == phaseCommand && op.kind == opRead:
		bk.occupy(opRead, now, op)
	case phase == phaseCommand:
		m.bus.TransferCB(op.requestor, op.ramp, op.n, now, op)
	case phase == phaseSecond && op.kind == opRead:
		op.bankDone(at)
		bk.perf.ReadBytes += uint64(op.n)
		m.bus.TransferCB(op.ramp, op.requestor, op.n, now+op.lat, op)
	case phase == phaseSecond:
		bk.occupy(opWrite, now, op)
	case op.kind == opRead:
		if op.buf != nil {
			m.ram.Read(op.addr, op.buf[:op.n])
		}
		op.release().Call(at)
	default:
		op.bankDone(at)
		if op.buf != nil {
			m.ram.Write(op.addr, op.buf[:op.n])
		}
		bk.perf.WriteBytes += uint64(op.n)
		ack := now + op.lat
		m.eng.AtCallee(ack, op.release(), ack)
	}
}

// Read performs a line read: command phase on the EIB, bank occupancy,
// then a data transfer from the bank's ramp to the requestor. dst receives
// the bytes when the transfer completes, at which point done fires with
// the completion time. dst may be nil to model a timing-only access.
func (m *Memory) Read(requestor eib.RampID, addr int64, n int, earliest sim.Time, dst []byte, done sim.Callee) {
	m.start(opRead, requestor, addr, n, earliest, dst, done)
}

// Write performs a line write: command phase, data transfer from the
// requestor to the bank's ramp, then bank occupancy. done fires when the
// bank has absorbed the write (the point at which the MFC retires the
// transfer for flow-control purposes). src may be nil for timing-only.
func (m *Memory) Write(requestor eib.RampID, addr int64, n int, earliest sim.Time, src []byte, done sim.Callee) {
	m.start(opWrite, requestor, addr, n, earliest, src, done)
}
