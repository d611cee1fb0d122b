// Package cell assembles the full Cell Broadband Engine system model: the
// PPE, eight SPEs, the MIC-attached XDR memory and the IOIF-attached
// remote bank, all wired to the Element Interconnect Bus, plus the
// effective-address map that routes DMA between main memory and
// memory-mapped local stores.
//
// It also owns the experimental platform quirks the paper documents: the
// 2.1 GHz clock, the dual-bank NUMA allocation, and the opaque
// logical-to-physical SPE mapping ("the current API does not allow the
// programmer to control such layout"), which is modeled as a seeded random
// permutation so experiments can sample layouts the way the paper samples
// runs.
package cell

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"cellbe/internal/eib"
	"cellbe/internal/fault"
	"cellbe/internal/mfc"
	"cellbe/internal/perfctr"
	"cellbe/internal/ppe"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
	"cellbe/internal/trace"
	"cellbe/internal/xdr"
)

// NumSPEs is the number of Synergistic Processor Elements on a CBE chip.
const NumSPEs = 8

// Config assembles the component configurations plus system-level layout.
type Config struct {
	// ClockGHz is the CPU clock; cycles-to-GB/s conversion uses it.
	ClockGHz float64
	// EIB, Mem, MFC, SPU, PPE configure the respective component models.
	EIB eib.Config
	Mem xdr.Config
	MFC mfc.Config
	SPU spe.Config
	PPE ppe.Config
	// Layout maps logical SPE index (what the program sees) to physical
	// SPE number (which fixes the EIB ramp). nil means identity. Use
	// RandomLayout to sample mappings as the paper's repeated runs do.
	Layout []int
	// LSBase is the effective address where local stores are mapped;
	// logical SPE i's LS occupies [LSBase+i*LSSpan, +LocalStoreBytes).
	LSBase int64
	// LSSpan is the EA stride between consecutive SPEs' local stores.
	LSSpan int64
	// Faults enables deterministic fault injection across the model
	// (MFC command-bus retries, XDR bank stalls, EIB ring slowdowns and
	// outages, delayed completions). Zero value disables injection.
	Faults fault.Config
	// FaultSeed seeds the injector's random stream; the same (Faults,
	// FaultSeed, Layout) triple perturbs a scenario identically on every
	// run.
	FaultSeed int64
	// MaxCycles is the default watchdog cycle budget RunChecked enforces
	// when its caller passes 0. Zero means unlimited.
	MaxCycles sim.Time
}

// Clone returns a deep copy of c. Every component configuration is a
// plain value, so the only reference field is the Layout slice — cloning
// it means a System built from the copy can never race a caller that
// keeps mutating the original Config (the sweep scheduler snapshots its
// base config this way before fanning grid points across workers).
func (c Config) Clone() Config {
	c.Layout = append([]int(nil), c.Layout...)
	return c
}

// DefaultConfig returns the calibrated configuration of the paper's
// dual-Cell blade (one active chip at 2.1 GHz, both memory banks).
func DefaultConfig() Config {
	return Config{
		ClockGHz: 2.1,
		EIB:      eib.DefaultConfig(),
		Mem:      xdr.DefaultConfig(),
		MFC:      mfc.DefaultConfig(),
		SPU:      spe.DefaultConfig(),
		PPE:      ppe.DefaultConfig(),
		LSBase:   1 << 30, // local stores mapped at 1 GB, above the 512 MB of RAM
		LSSpan:   1 << 20,
	}
}

// RandomLayout returns a logical-to-physical SPE permutation drawn from
// seed. Seed 0 returns the identity mapping.
func RandomLayout(seed int64) []int {
	if seed == 0 {
		layout := make([]int, NumSPEs)
		for i := range layout {
			layout[i] = i
		}
		return layout
	}
	return rand.New(rand.NewSource(seed)).Perm(NumSPEs)
}

// System is a fully wired Cell BE machine model.
type System struct {
	Eng  *sim.Engine
	Bus  *eib.EIB
	Mem  *xdr.Memory
	PPE  *ppe.PPE
	SPEs []*spe.SPE // indexed by logical SPE number

	cfg       Config
	allocNext int64
	resv      *reservations
	rem       *remoteChip
	faults    *fault.Injector
	tracer    *trace.Tracer
	// counters is the block the system owns, zeroed on every init; perf
	// is the block the components count into — counters unless SetPerf
	// re-pointed them.
	counters perfctr.Counters
	perf     *perfctr.Counters
	pktFree  *pktDone   // free list of packet completion records (engine is single-threaded)
	killFree *killWrite // free list of main-memory write completion records
	streams  []*dmaStream

	// fabs holds each logical SPE's routing fabric so a recycled system
	// can rebind ramps for a new layout without rebuilding the SPEs.
	fabs [NumSPEs]*fabric
	// scen records the installed scenario (zero Kind = none yet); a
	// Snapshot captures it for its clones.
	scen Scenario
}

// Validate reports why the configuration cannot build a System, nil when
// it can. New panics on exactly these conditions; callers assembling a
// Config from untrusted input (the serve layer, the CLIs' -config files)
// validate first so bad input fails with an error instead of a panic.
func (c Config) Validate() error {
	if c.ClockGHz <= 0 {
		return fmt.Errorf("cell: clock must be positive")
	}
	if c.Layout != nil {
		if len(c.Layout) != NumSPEs {
			return fmt.Errorf("cell: layout must have %d entries", NumSPEs)
		}
		seen := make(map[int]bool)
		for _, p := range c.Layout {
			if p < 0 || p >= NumSPEs || seen[p] {
				return fmt.Errorf("cell: layout %v is not a permutation", c.Layout)
			}
			seen[p] = true
		}
	}
	// RAM stores whole lines, and bank placement divides by the page size.
	if m := c.Mem; m.TotalBytes <= 0 || m.TotalBytes%xdr.LineBytes != 0 || m.PageBytes <= 0 {
		return fmt.Errorf("cell: Mem.TotalBytes %d must be a positive multiple of %d and Mem.PageBytes %d positive",
			m.TotalBytes, xdr.LineBytes, m.PageBytes)
	}
	if c.LSSpan < spe.LocalStoreBytes || c.LSBase < c.Mem.TotalBytes {
		return fmt.Errorf("cell: LS mapping overlaps RAM")
	}
	// The counter block and the EIB's per-ring arrays hold NumRings rings,
	// split evenly between the two directions.
	if r := c.EIB.RingsPerDirection; r < 1 || r > perfctr.NumRings/2 {
		return fmt.Errorf("cell: EIB.RingsPerDirection %d outside 1..%d", r, perfctr.NumRings/2)
	}
	if c.EIB.BusPeriod <= 0 || c.EIB.BeatBytes <= 0 {
		return fmt.Errorf("cell: EIB.BusPeriod and EIB.BeatBytes must be positive")
	}
	if c.EIB.RingDeadCycles < 0 {
		return fmt.Errorf("cell: EIB.RingDeadCycles %d must not be negative", c.EIB.RingDeadCycles)
	}
	return nil
}

// ParseConfig is the one decoder of a machine configuration read from
// outside the program (the CLIs' -config files, a cellserve request's
// config). data is a JSON overlay over DefaultConfig: a key it sets
// overrides the calibrated value, a key it omits keeps it, and {} is the
// default machine. A key Config does not have is an error, not ignored;
// so is a Layout, because every front end derives the layout from its
// layout seed; and so is a config Validate rejects.
func ParseConfig(data []byte) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("cell: decoding config: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, errors.New("cell: decoding config: data after the JSON object")
	}
	if cfg.Layout != nil {
		return Config{}, errors.New("cell: config sets Layout, which is derived from the layout seed")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// New builds a system from cfg.
func New(cfg Config) *System {
	s := &System{}
	s.init(cfg)
	return s
}

// init wires s for cfg. On a zero System it performs the cold boot New
// always did; on a recycled carcass (Arena.Boot) it resets and rebinds
// the components already present, whatever Config and scenario they last
// ran, keeping every allocation they grew — the engine's timing wheel,
// the EIB's interval timelines, the MFC queues and the local stores
// (re-zeroed over their dirty spans only). Either way the result must be
// observationally identical to a cold boot: the arena differential tests
// pin this.
func (s *System) init(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	layout := cfg.Layout
	if layout == nil {
		layout = RandomLayout(0)
	}

	if s.Eng == nil {
		s.Eng = sim.NewEngine()
	} else {
		s.Eng.Reset()
	}
	eng := s.Eng
	freshBus := s.Bus == nil || !s.Bus.Reset(cfg.EIB)
	if freshBus {
		s.Bus = eib.New(eng, cfg.EIB)
	}
	if s.Mem == nil || freshBus {
		// The memory system routes through the bus instance, so a rebuilt
		// bus forces a rebuilt memory front end too.
		s.Mem = xdr.New(eng, s.Bus, cfg.Mem)
	} else {
		s.Mem.Reset(cfg.Mem)
	}
	s.cfg = cfg
	s.cfg.Layout = layout
	s.allocNext = 0
	s.resv = newReservations()
	s.rem = nil
	s.faults = fault.New(cfg.Faults, cfg.FaultSeed)
	s.Bus.SetFaults(s.faults)
	s.Mem.SetFaults(s.faults)
	s.tracer = nil
	s.streams = s.streams[:0] // records stay in the backing array for reuse
	s.scen = Scenario{}

	for logical := 0; logical < NumSPEs; logical++ {
		ramp := eib.PhysicalSPERamp(layout[logical])
		if logical < len(s.SPEs) {
			fab := s.fabs[logical]
			fab.ramp = ramp
			sp := s.SPEs[logical]
			sp.Reset(ramp, fab, cfg.SPU, cfg.MFC)
			sp.MFC().SetFaults(s.faults)
			continue
		}
		fab := &fabric{sys: s, ramp: ramp}
		s.fabs[logical] = fab
		sp := spe.New(eng, logical, ramp, fab, cfg.SPU, cfg.MFC)
		sp.MFC().SetFaults(s.faults)
		s.SPEs = append(s.SPEs, sp)
	}
	if s.PPE == nil {
		s.PPE = ppe.New(eng, &ppePort{sys: s}, cfg.PPE)
	} else {
		s.PPE.Reset(&ppePort{sys: s}, cfg.PPE)
	}
	s.counters = perfctr.Counters{}
	s.SetPerf(&s.counters)
	eng.OnDiagnostic(s.diagnose)
}

// Faults returns the system's fault injector (nil when injection is
// disabled).
func (s *System) Faults() *fault.Injector { return s.faults }

// SetTracer wires an event tracer through every component — the EIB, both
// XDR banks, all eight MFCs and the PPE — following the SetFaults
// discipline: nil (the default) leaves every hot path on its traced-off
// fast path. It also stamps the tracer with the system clock and display
// names for every track so exports are self-describing.
func (s *System) SetTracer(tr *trace.Tracer) {
	s.tracer = tr
	s.Bus.SetTracer(tr)
	s.Mem.SetTracer(tr)
	s.PPE.SetTracer(tr)
	for i, sp := range s.SPEs {
		sp.MFC().SetTracer(tr, i)
	}
	if tr == nil {
		return
	}
	tr.SetClock(s.cfg.ClockGHz)
	tr.SetTrackName(trace.TrackPPE, "PPE fills")
	tr.SetTrackName(trace.TrackPPEMissQ, "PPE miss queue")
	for i := range s.SPEs {
		ramp := eib.PhysicalSPERamp(s.cfg.Layout[i])
		tr.SetTrackName(trace.MFCTrack(i), fmt.Sprintf("SPE%d MFC (ramp %v)", i, ramp))
		tr.SetTrackName(trace.TagTrack(i), fmt.Sprintf("SPE%d tags", i))
	}
	for r := 0; r < eib.NumRamps; r++ {
		tr.SetTrackName(trace.RampTrack(r), fmt.Sprintf("%v out", eib.RampID(r)))
	}
	for ring := 0; ring < 2*s.cfg.EIB.RingsPerDirection; ring++ {
		dir := eib.Clockwise
		if ring >= s.cfg.EIB.RingsPerDirection {
			dir = eib.Counterclockwise
		}
		for seg := 0; seg < eib.NumRamps; seg++ {
			next := (seg + 1) % eib.NumRamps
			if dir == eib.Counterclockwise {
				next = (seg - 1 + eib.NumRamps) % eib.NumRamps
			}
			tr.SetTrackName(trace.SegTrack(ring, seg),
				fmt.Sprintf("ring%d %v %v>%v", ring, dir, eib.RampID(seg), eib.RampID(next)))
		}
	}
	tr.SetTrackName(trace.BankTrack(0), "XDR local (MIC)")
	tr.SetTrackName(trace.BankTrack(1), "XDR remote (IOIF0)")
}

// Perf returns the counter block every component counts into. Counting
// is always on: the components' Stats() are views over this block.
func (s *System) Perf() *perfctr.Counters { return s.perf }

// SetPerf re-points every component — the EIB, both XDR banks, all eight
// MFCs and the PPE — at pc instead of the system's own block, which init
// zeroes and attaches. Call it before the first event: counts already
// made stay behind in the old block, and component Stats() read the new
// one.
func (s *System) SetPerf(pc *perfctr.Counters) {
	s.perf = pc
	s.Mem.SetPerf(pc)
	s.Bus.SetPerf(&pc.EIB)
	s.PPE.SetPerf(&pc.PPE)
	for i, sp := range s.SPEs {
		sp.MFC().SetPerf(&pc.MFC[i])
	}
}

// StartMetrics arms a periodic utilization sampler on the system: every
// interval cycles it records EIB bandwidth and command rate, per-ring
// utilization, accumulated wait cycles, both XDR banks' bandwidth,
// per-SPE MFC queue depth, the command-bus backlog and the PPE miss-queue
// occupancy. It is the one windowed view of the counter block. The
// sampler runs on daemon events, so it never extends a run or changes
// simulated behaviour, and the partial interval after the last full tick
// goes unsampled; call before Run and read the returned sampler's
// Timeseries afterwards.
func (s *System) StartMetrics(interval sim.Time) *trace.Sampler {
	sa := trace.NewSampler(s.Eng, interval)
	clk := s.cfg.ClockGHz
	perCyc := 1.0 / float64(interval)
	sa.Rate("eib_GBps", clk*perCyc, func() float64 { return float64(s.Perf().EIB.Bytes) })
	sa.Rate("eib_cmds_per_kcyc", 1000*perCyc, func() float64 { return float64(s.Perf().EIB.Commands) })
	sa.Rate("eib_transfers", 1, func() float64 {
		e := &s.Perf().EIB
		return float64(e.GrantTotal() + e.LocalGrants)
	})
	sa.Rate("eib_wait_cyc", 1, func() float64 { return float64(s.Perf().EIB.WaitCycles) })
	for r := range 2 * s.cfg.EIB.RingsPerDirection {
		sa.Rate(fmt.Sprintf("ring%d_util", r), perCyc, func() float64 {
			return float64(s.Perf().EIB.RingBusy[r])
		})
	}
	sa.Rate("xdr_local_GBps", clk*perCyc, func() float64 { return float64(s.Perf().XDR[0].Bytes()) })
	sa.Rate("xdr_remote_GBps", clk*perCyc, func() float64 { return float64(s.Perf().XDR[1].Bytes()) })
	for i, sp := range s.SPEs {
		m := sp.MFC()
		sa.Gauge(fmt.Sprintf("spe%d_q", i), func() float64 { return float64(m.QueueOccupancy()) })
	}
	sa.Gauge("cmdbus_backlog", func() float64 { return float64(s.Bus.CommandBacklog()) })
	sa.Gauge("ppe_missq", func() float64 { return float64(s.PPE.InflightFills()) })
	sa.Start()
	return sa
}

// diagnose contributes per-SPE MFC state to watchdog diagnostics.
func (s *System) diagnose() []string {
	var lines []string
	for i, sp := range s.SPEs {
		for _, d := range sp.MFC().Diagnose() {
			lines = append(lines, fmt.Sprintf("SPE%d MFC: %s", i, d))
		}
	}
	return lines
}

// Config returns the system configuration (with the resolved layout).
func (s *System) Config() Config { return s.cfg }

// Layout returns the logical-to-physical SPE mapping in use.
func (s *System) Layout() []int { return append([]int(nil), s.cfg.Layout...) }

// Run drives the simulation until no events remain.
func (s *System) Run() { s.Eng.Run() }

// RunChecked drives the simulation under the watchdog: it enforces the
// max-cycle budget (0 = unlimited), detects deadlocks when the event
// queue drains with SPU/PPU processes still blocked, converts process
// panics into errors, and verifies the data-conservation invariants at
// teardown. On failure the returned error is a *sim.DeadlockError, a
// *sim.ProcessPanic, or a conservation error.
func (s *System) RunChecked(maxCycles sim.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pp, ok := r.(*sim.ProcessPanic)
			if !ok {
				panic(r)
			}
			err = pp
		}
	}()
	if maxCycles == 0 {
		maxCycles = s.cfg.MaxCycles
	}
	if err := s.Eng.RunChecked(maxCycles); err != nil {
		return err
	}
	return s.Verify()
}

// Verify checks scenario-teardown invariants: every MFC must have
// delivered exactly the bytes requested of it, per tag group, with
// nothing left in flight. Fault injection delays data but never loses
// it, so faulty runs must pass too.
func (s *System) Verify() error {
	for i, sp := range s.SPEs {
		if err := sp.MFC().CheckConservation(); err != nil {
			return fmt.Errorf("cell: SPE%d: %w", i, err)
		}
	}
	return nil
}

// GBps converts bytes moved in cycles into GB/s at the system clock.
func (s *System) GBps(bytes int64, cycles sim.Time) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(bytes) * s.cfg.ClockGHz / float64(cycles)
}

// LSEA returns the effective address of byte off inside logical SPE i's
// local store, as seen by DMA engines.
func (s *System) LSEA(logical, off int) int64 {
	if logical < 0 || logical >= NumSPEs {
		panic(fmt.Sprintf("cell: bad SPE index %d", logical))
	}
	if off < 0 || off >= spe.LocalStoreBytes {
		panic(fmt.Sprintf("cell: bad LS offset %#x", off))
	}
	return s.cfg.LSBase + int64(logical)*s.cfg.LSSpan + int64(off)
}

// Alloc reserves size bytes of main memory aligned to align and returns
// its effective address. It is a bump allocator for experiment buffers.
// It panics when the simulated address space is exhausted; callers
// handling user-sized requests should use TryAlloc.
func (s *System) Alloc(size int64, align int64) int64 {
	addr, err := s.TryAlloc(size, align)
	if err != nil {
		panic(err.Error())
	}
	return addr
}

// TryAlloc is Alloc returning an error instead of panicking when the
// request does not fit the simulated address space — the path for
// user-controlled sizes (CLI -volume), which must fail with a clean
// message.
func (s *System) TryAlloc(size int64, align int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("cell: allocation of %d bytes", size)
	}
	if align <= 0 {
		align = 128
	}
	addr := (s.allocNext + align - 1) / align * align
	if addr+size > s.cfg.Mem.TotalBytes {
		return 0, fmt.Errorf("cell: out of simulated memory (%d MB requested beyond the %d MB address space)",
			size>>20, s.cfg.Mem.TotalBytes>>20)
	}
	s.allocNext = addr + size
	return addr, nil
}

// resolveLS maps an effective address to (logical SPE, LS offset) when it
// falls in the local store aperture.
func (s *System) resolveLS(ea int64) (logical, off int, ok bool) {
	if ea < s.cfg.LSBase {
		return 0, 0, false
	}
	idx := (ea - s.cfg.LSBase) / s.cfg.LSSpan
	if idx >= NumSPEs {
		panic(fmt.Sprintf("cell: EA %#x beyond the LS aperture", ea))
	}
	off64 := (ea - s.cfg.LSBase) % s.cfg.LSSpan
	if off64 >= spe.LocalStoreBytes+8 {
		panic(fmt.Sprintf("cell: EA %#x falls in an unmapped LS hole", ea))
	}
	return int(idx), int(off64), true
}

// SignalEA returns the memory-mapped address of logical SPE i's signal
// notification register reg (0 or 1).
func (s *System) SignalEA(logical, reg int) int64 {
	if reg != 0 && reg != 1 {
		panic("cell: signal register must be 0 or 1")
	}
	if logical < 0 || logical >= NumSPEs {
		panic(fmt.Sprintf("cell: bad SPE index %d", logical))
	}
	return s.cfg.LSBase + int64(logical)*s.cfg.LSSpan + spe.SNROffset + int64(4*reg)
}

// Release returns the system's recyclable buffers (the SPE local stores)
// to their allocation pools. The caller promises the system is dead: no
// further Run, scenario or inspection call may follow. Batch drivers that
// build one System per point (sweeps) call this to keep GC pressure flat;
// everyone else can simply drop the System.
func (s *System) Release() {
	for _, sp := range s.SPEs {
		sp.Release()
	}
}

// fabric routes one SPE's DMA line requests: to main memory via the
// MIC/IOIF, or to another SPE's memory-mapped local store.
type fabric struct {
	sys  *System
	ramp eib.RampID
}

// pktDone is a pooled completion record for one DMA packet routed to a
// local-store target: the context the fabric's per-packet closures used
// to capture, made reusable so the LS-to-LS packet hot path schedules
// through eib.Transfer (see sim.Callee) without allocating. Records
// recycle through a free list on System — the engine is single-threaded,
// so no locking — and are released before the completion callback runs,
// ready for the MFC pump's immediate next packet.
type pktDone struct {
	sys    *System
	target *spe.SPE
	buf    []byte // requester-side packet buffer: dst for reads, src for writes; may be nil
	off    int    // target LS offset
	n      int
	write  bool
	done   sim.Callee
	next   *pktDone // free-list link
}

func (s *System) getPkt() *pktDone {
	p := s.pktFree
	if p == nil {
		return &pktDone{sys: s}
	}
	s.pktFree = p.next
	return p
}

// Call performs the local-store side effect of the completed packet, then
// releases the record and invokes the caller's completion. Release comes
// first because done may schedule the next packet synchronously and should
// find this record back on the free list.
func (p *pktDone) Call(end sim.Time) {
	if p.write {
		if p.off >= spe.SNROffset {
			// A 4-byte store landing on a signal notification register
			// ORs into it.
			if p.n == 4 && p.buf != nil {
				reg := (p.off - spe.SNROffset) / 4
				v := uint32(p.buf[0]) | uint32(p.buf[1])<<8 | uint32(p.buf[2])<<16 | uint32(p.buf[3])<<24
				p.target.WriteSignal(reg, v)
			}
		} else if p.buf != nil {
			copy(p.target.LSWrite(p.off, p.n), p.buf[:p.n])
		}
	} else if p.buf != nil {
		copy(p.buf, p.target.LSRead(p.off, p.n))
	}
	sys, done := p.sys, p.done
	*p = pktDone{sys: sys, next: sys.pktFree}
	sys.pktFree = p
	done.Call(end)
}

func (f *fabric) ReadEA(ea int64, n int, earliest sim.Time, dst []byte, done sim.Callee) {
	sys := f.sys
	if remote, off, ok := sys.resolveRemoteLS(ea); ok {
		f.readRemote(remote, off, n, earliest, dst, done)
		return
	}
	if logical, off, ok := sys.resolveLS(ea); ok {
		target := sys.SPEs[logical]
		ready := sys.Bus.Command(earliest)
		p := sys.getPkt()
		p.target, p.buf, p.off, p.n, p.write, p.done = target, dst, off, n, false, done
		sys.Bus.Transfer(target.Ramp(), f.ramp, n, ready, p)
		return
	}
	sys.Mem.Read(f.ramp, ea, n, earliest, dst, done)
}

func (f *fabric) WriteEA(ea int64, n int, earliest sim.Time, src []byte, done sim.Callee) {
	sys := f.sys
	if remote, off, ok := sys.resolveRemoteLS(ea); ok {
		f.writeRemote(remote, off, n, earliest, src, done)
		return
	}
	if logical, off, ok := sys.resolveLS(ea); ok {
		target := sys.SPEs[logical]
		ready := sys.Bus.Command(earliest)
		p := sys.getPkt()
		p.target, p.buf, p.off, p.n, p.write, p.done = target, src, off, n, true, done
		sys.Bus.Transfer(f.ramp, target.Ramp(), n, ready, p)
		return
	}
	sys.writeMem(f.ramp, ea, n, earliest, src, done)
}

// killWrite is the pooled completion record of a main-memory write: any
// store to a line kills reservations on it (the coherence point), then
// the writer's completion fires. Records recycle through a free list on
// System and are released before done runs, like pktDone.
type killWrite struct {
	sys  *System
	line int64
	done sim.Callee
	next *killWrite // free-list link
}

func (k *killWrite) Call(end sim.Time) {
	sys, done := k.sys, k.done
	sys.resv.kill(k.line)
	*k = killWrite{sys: sys, next: sys.killFree}
	sys.killFree = k
	done.Call(end)
}

// writeMem issues a main-memory line write from ramp whose completion
// kills reservations on the line before done fires.
func (s *System) writeMem(ramp eib.RampID, ea int64, n int, earliest sim.Time, src []byte, done sim.Callee) {
	k := s.killFree
	if k == nil {
		k = &killWrite{sys: s}
	} else {
		s.killFree = k.next
	}
	k.line, k.done = lineOf(ea), done
	s.Mem.Write(ramp, ea, n, earliest, src, k)
}

// ppePort is the PPE's line-fill path over the EIB to main memory.
type ppePort struct{ sys *System }

func (p *ppePort) ReadLine(addr int64, earliest sim.Time, done sim.Callee) {
	p.sys.Mem.Read(eib.RampPPE, addr, xdr.LineBytes, earliest, nil, done)
}

func (p *ppePort) WriteLine(addr int64, earliest sim.Time, done sim.Callee) {
	p.sys.writeMem(eib.RampPPE, addr, xdr.LineBytes, earliest, nil, done)
}
