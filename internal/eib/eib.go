// Package eib models the Cell Broadband Engine's Element Interconnect Bus.
//
// The EIB connects 12 "ramps" (bus units): the PPE, the eight SPEs, the
// memory interface controller (MIC) and two I/O interfaces (IOIF0/IOIF1).
// Data moves on four unidirectional rings, two per direction, each 16 bytes
// wide per bus cycle; the bus runs at half the CPU clock. A transfer may
// travel at most half way around the ring (6 hops), so for any src/dst pair
// only the shorter direction (or either, at exactly 6 hops) is eligible.
// Each ramp can source one 16-byte beat and sink one 16-byte beat per bus
// cycle. A separate, snooped command bus carries one command per bus cycle.
//
// The model is a timetable scheduler: a data transfer reserves the ring
// segments along its path, plus the source's output port and the
// destination's input port, for the duration of the transfer. Conflicting
// reservations push transfers later in time, which is exactly the
// physical-layout contention the paper measures (its Figures 13 and 16).
package eib

import (
	"fmt"

	"cellbe/internal/fault"
	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
	"cellbe/internal/trace"
)

// RampID identifies a physical position (bus unit) on the ring, 0..11.
type RampID int

// NumRamps is the number of bus units on the EIB.
const NumRamps = 12

// Physical ramp layout of the Cell BE die, going around the ring. This
// follows the floorplan described by Krolak's EIB presentation: one row of
// SPEs on each side of the die, with the PPE/MIC at one end and the I/O
// interfaces at the other.
const (
	RampPPE RampID = iota
	RampSPE1
	RampSPE3
	RampSPE5
	RampSPE7
	RampIOIF1
	RampIOIF0
	RampSPE6
	RampSPE4
	RampSPE2
	RampSPE0
	RampMIC
)

var rampNames = [NumRamps]string{
	"PPE", "SPE1", "SPE3", "SPE5", "SPE7", "IOIF1",
	"IOIF0", "SPE6", "SPE4", "SPE2", "SPE0", "MIC",
}

func (r RampID) String() string {
	if r >= 0 && int(r) < NumRamps {
		return rampNames[r]
	}
	return fmt.Sprintf("Ramp(%d)", int(r))
}

// PhysicalSPERamp returns the ramp of physical SPE i (0..7).
func PhysicalSPERamp(i int) RampID {
	ramps := [8]RampID{RampSPE0, RampSPE1, RampSPE2, RampSPE3, RampSPE4, RampSPE5, RampSPE6, RampSPE7}
	return ramps[i]
}

// Direction of travel around the ring.
type Direction int

const (
	// Clockwise travels from ramp i to ramp i+1 (mod 12).
	Clockwise Direction = iota
	// Counterclockwise travels from ramp i to ramp i-1 (mod 12).
	Counterclockwise
)

func (d Direction) String() string {
	if d == Clockwise {
		return "cw"
	}
	return "ccw"
}

// Config holds the EIB timing parameters, all in CPU cycles.
type Config struct {
	// BusPeriod is the CPU cycles per bus cycle (2: the EIB runs at half
	// the processor clock).
	BusPeriod sim.Time
	// BeatBytes is the ring width: bytes moved per bus cycle per ring (16).
	BeatBytes int
	// CmdLatency is the command-phase latency: the time from a command
	// being issued to the data phase being eligible (address collision
	// detection + snoop response). Pipelined, so it adds latency but not
	// a throughput limit by itself.
	CmdLatency sim.Time
	// CmdIntervalTenths is the command bus throughput limit in tenths of
	// a CPU cycle between command starts. The ideal machine snoops one
	// command per bus cycle (20 tenths); reflection and retry overhead
	// on the loaded bus makes the sustainable rate lower — 25 tenths
	// (2.5 cycles) reproduces the paper's ~70% ceiling when four couples
	// of SPEs demand the full 134.4 GB/s (every 128-byte packet needs a
	// command slot).
	CmdIntervalTenths int64
	// RingsPerDirection is the number of data rings in each direction (2).
	RingsPerDirection int
	// TraceCapacity, when positive, keeps a ring buffer of the most
	// recent data transfers for inspection (cellsim -dump-transfers).
	TraceCapacity int
	// RingDeadCycles is the switching gap a ring segment pays between
	// reservations of *different* flows (src/dst pairs): a granted flow
	// streams gaplessly, but interleaving flows re-arbitrate. Invisible
	// while each flow has a ring of its own; once more flows than rings
	// share a direction it cuts segment utilization — the EIB saturation
	// the paper observes with 4+ concurrent transfers.
	RingDeadCycles sim.Time
}

// DefaultConfig returns the Cell BE EIB parameters.
func DefaultConfig() Config {
	return Config{
		BusPeriod:         2,
		BeatBytes:         16,
		CmdLatency:        50,
		CmdIntervalTenths: 25,
		RingsPerDirection: 2,
		RingDeadCycles:    64,
	}
}

type ring struct {
	dir Direction
	// seg[s] tracks reservations of segment s. For a clockwise ring,
	// segment s carries data from ramp s to ramp s+1; for a
	// counterclockwise ring, from ramp s to ramp s-1 (indexed by source).
	seg [NumRamps]timeline
}

// ringCand is one precomputed candidate ring for a (src, dst) flow: the
// ring index together with the path it would take. The grant loop in
// transfer iterates exactly these instead of filtering all rings through
// the route table on every packet.
type ringCand struct {
	segs []int
	ri   int8
	hops int8
}

// flowPlan is the per-(src, dst) routing plan: every eligible candidate
// ring in ring-index order (the grant loop's deterministic tie-break
// order).
type flowPlan struct {
	cand []ringCand
}

// Stats is a view of the EIB's counter block for tests and reporting.
type Stats struct {
	// Transfers counts every data transfer, including ramp-local
	// (src==dst) ones that never touch the rings.
	Transfers int64
	// LocalTransfers counts the ramp-local subset of Transfers. Those
	// transfers contribute zero to WaitCycles by definition (there is no
	// ring contention to wait on), so an average wait per *ring* transfer
	// is WaitCycles / (Transfers - LocalTransfers).
	LocalTransfers int64
	Bytes          int64
	Commands       int64
	BusyCycles     [4]sim.Time // per-ring total reserved cycles
	// WaitCycles is the total cycles transfers spent waiting beyond their
	// earliest eligible start, summed over all transfers. Ramp-local
	// transfers are counted explicitly with zero wait: they inflate
	// Transfers but never WaitCycles, which is why the per-transfer
	// average must exclude them (see LocalTransfers).
	WaitCycles sim.Time
	// PerRampBytes counts bytes *sourced* by each ramp (ring transfers
	// only, matching the original aggregate semantics).
	PerRampBytes [NumRamps]int64
	PerDirCount  [2]int64

	// Finer-grained breakdowns (ring transfers only; ramp-local transfers
	// never appear here). PerRamp* are indexed by physical RampID,
	// PerRing* by granted ring (0..1 clockwise, 2..3 counterclockwise in
	// the default configuration), PerDir* by Direction.
	PerRampRecvBytes [NumRamps]int64 // bytes sunk at each destination ramp
	PerRampTransfers [NumRamps]int64 // transfers sourced by each ramp
	PerRingTransfers [4]int64
	PerRingBytes     [4]int64
	PerDirBytes      [2]int64
}

// TransferRecord is one traced data transfer.
type TransferRecord struct {
	Issued sim.Time // when the transfer was requested
	Start  sim.Time // when the data began moving
	End    sim.Time // when the last beat arrived
	Src    RampID
	Dst    RampID
	Bytes  int
	Ring   int // granted ring index; -1 for ramp-local transfers
}

// EIB is the interconnect model. It is not safe for concurrent use: all
// calls must come from simulation events.
type EIB struct {
	eng   *sim.Engine
	cfg   Config
	rings []ring
	plan  [NumRamps][NumRamps]flowPlan
	out   [NumRamps]timeline // source ramp data-out port
	in    [NumRamps]timeline // destination ramp data-in port
	// cmdNextTenths is the command bus pacing cursor in tenths of a
	// cycle (fixed point, so fractional intervals pace exactly).
	cmdNextTenths int64
	// pruneTick counts ring transfers to amortize timeline pruning.
	pruneTick uint32
	faults    *fault.Injector
	tracer    *trace.Tracer
	perf      *perfctr.EIBCounters
	trace     []TransferRecord
	traceNext int
}

// SetFaults attaches a fault injector (nil disables injection). Wired by
// the cell package at system assembly.
func (e *EIB) SetFaults(inj *fault.Injector) { e.faults = inj }

// SetTracer attaches an event tracer (nil disables tracing, the default).
// Wired by the cell package at system assembly, like SetFaults.
func (e *EIB) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// SetPerf points the EIB at the counter block it counts into (New
// starts it on a private one). Wired by the cell package at system
// assembly, before the first event.
func (e *EIB) SetPerf(pc *perfctr.EIBCounters) { e.perf = pc }

// CommandBacklog returns how many cycles the command bus pacing cursor sits
// ahead of now: the queueing delay the next command would see. It is the
// token-bucket level the metrics sampler reports.
func (e *EIB) CommandBacklog() sim.Time {
	ahead := sim.Time((e.cmdNextTenths + 9) / 10)
	if now := e.eng.Now(); ahead > now {
		return ahead - now
	}
	return 0
}

// Trace returns the retained transfer records, oldest first. Empty unless
// Config.TraceCapacity is set.
func (e *EIB) Trace() []TransferRecord {
	if len(e.trace) < cap(e.trace) {
		return append([]TransferRecord(nil), e.trace...)
	}
	out := make([]TransferRecord, 0, len(e.trace))
	out = append(out, e.trace[e.traceNext:]...)
	out = append(out, e.trace[:e.traceNext]...)
	return out
}

// record adds a transfer to the trace ring buffer.
func (e *EIB) record(r TransferRecord) {
	if e.cfg.TraceCapacity <= 0 {
		return
	}
	if e.trace == nil {
		e.trace = make([]TransferRecord, 0, e.cfg.TraceCapacity)
	}
	if len(e.trace) < cap(e.trace) {
		e.trace = append(e.trace, r)
		return
	}
	e.trace[e.traceNext] = r
	e.traceNext = (e.traceNext + 1) % cap(e.trace)
}

// New returns an EIB bound to eng with the given configuration.
func New(eng *sim.Engine, cfg Config) *EIB {
	if cfg.BusPeriod <= 0 || cfg.BeatBytes <= 0 || cfg.RingsPerDirection <= 0 {
		panic("eib: invalid config")
	}
	e := &EIB{eng: eng, cfg: cfg, perf: new(perfctr.EIBCounters)}
	for i := 0; i < cfg.RingsPerDirection; i++ {
		e.rings = append(e.rings, ring{dir: Clockwise})
	}
	for i := 0; i < cfg.RingsPerDirection; i++ {
		e.rings = append(e.rings, ring{dir: Counterclockwise})
	}
	// Flatten the route table against this instance's ring list: one
	// candidate entry per eligible ring per flow, in ring-index order,
	// all carved from a single backing array.
	n := 0
	for src := 0; src < NumRamps; src++ {
		for dst := 0; dst < NumRamps; dst++ {
			for ri := range e.rings {
				if src != dst && routeTable[e.rings[ri].dir][src][dst].ok {
					n++
				}
			}
		}
	}
	backing := make([]ringCand, 0, n)
	for src := 0; src < NumRamps; src++ {
		for dst := 0; dst < NumRamps; dst++ {
			if src == dst {
				continue
			}
			from := len(backing)
			for ri := range e.rings {
				rt := &routeTable[e.rings[ri].dir][src][dst]
				if rt.ok {
					backing = append(backing, ringCand{segs: rt.segs, ri: int8(ri), hops: int8(rt.hops)})
				}
			}
			e.plan[src][dst] = flowPlan{cand: backing[from:len(backing):len(backing)]}
		}
	}
	return e
}

// Reset returns the EIB to the state New(eng, cfg) would build, keeping
// the ring list, the flattened route plan (both purely topological) and
// every timeline's grown backing array. It reports false — leaving the
// EIB untouched — when cfg changes the ring count, since then the plan
// table no longer matches and the caller must build a fresh instance.
// Attachments (faults, tracer) are cleared exactly as on a fresh EIB;
// the counter block is left for the assembling layer to re-point.
func (e *EIB) Reset(cfg Config) bool {
	if cfg.BusPeriod <= 0 || cfg.BeatBytes <= 0 || cfg.RingsPerDirection <= 0 {
		panic("eib: invalid config")
	}
	if cfg.RingsPerDirection != e.cfg.RingsPerDirection {
		return false
	}
	e.cfg = cfg
	for ri := range e.rings {
		for s := range e.rings[ri].seg {
			e.rings[ri].seg[s].reset()
		}
	}
	for i := range e.out {
		e.out[i].reset()
		e.in[i].reset()
	}
	e.cmdNextTenths = 0
	e.pruneTick = 0
	e.faults, e.tracer = nil, nil
	e.trace, e.traceNext = nil, 0
	return true
}

// Config returns the configuration the EIB was built with.
func (e *EIB) Config() Config { return e.cfg }

// Stats returns a snapshot of the activity counters, computed from the
// counter block.
func (e *EIB) Stats() Stats {
	c := e.perf
	st := Stats{
		Transfers:      int64(c.GrantTotal() + c.LocalGrants),
		LocalTransfers: int64(c.LocalGrants),
		Bytes:          int64(c.Bytes),
		Commands:       int64(c.Commands),
		WaitCycles:     sim.Time(c.WaitCycles),
	}
	for i := range c.Grants {
		st.PerRampBytes[i] = int64(c.RampBytes[i])
		st.PerRampRecvBytes[i] = int64(c.RampRecvBytes[i])
		st.PerRampTransfers[i] = int64(c.Grants[i])
	}
	for r := range min(len(e.rings), perfctr.NumRings) {
		st.BusyCycles[r] = sim.Time(c.RingBusy[r])
		st.PerRingTransfers[r] = int64(c.RingGrants[r])
		st.PerRingBytes[r] = int64(c.RingBytes[r])
		d := e.rings[r].dir
		st.PerDirCount[d] += st.PerRingTransfers[r]
		st.PerDirBytes[d] += st.PerRingBytes[r]
	}
	return st
}

// Hops returns the number of ring segments from src to dst in direction d.
func Hops(src, dst RampID, d Direction) int {
	if d == Clockwise {
		return int((dst - src + NumRamps) % NumRamps)
	}
	return int((src - dst + NumRamps) % NumRamps)
}

// pathTable holds the segment indices for every (direction, src, dst)
// triple, sliced out of one shared backing array. The ring topology is
// fixed, so the 12x12x2 table is built once at package init; rebuilding a
// fresh []int per candidate ring per Transfer call was one of the largest
// allocation sources in saturated runs. Callers must treat the returned
// slices as read-only.
var pathTable [2][NumRamps][NumRamps][]int

// route is the precomputed routing decision for one (direction, src, dst)
// triple: whether the direction is eligible (<= 6 hops), the path length,
// and the segments travelled. Transfer consults it per candidate ring, so
// it folds the Hops modular arithmetic and the path lookup into one load.
type route struct {
	segs []int
	hops int
	ok   bool
}

var routeTable [2][NumRamps][NumRamps]route

func init() {
	// Total segments: for each direction, sum of hop counts over all
	// src/dst pairs. One flat array keeps the table cache-friendly.
	total := 0
	for src := 0; src < NumRamps; src++ {
		for dst := 0; dst < NumRamps; dst++ {
			total += Hops(RampID(src), RampID(dst), Clockwise)
			total += Hops(RampID(src), RampID(dst), Counterclockwise)
		}
	}
	backing := make([]int, 0, total)
	for _, d := range []Direction{Clockwise, Counterclockwise} {
		for src := 0; src < NumRamps; src++ {
			for dst := 0; dst < NumRamps; dst++ {
				hops := Hops(RampID(src), RampID(dst), d)
				from := len(backing)
				cur := src
				for i := 0; i < hops; i++ {
					backing = append(backing, cur)
					if d == Clockwise {
						cur = (cur + 1) % NumRamps
					} else {
						cur = (cur - 1 + NumRamps) % NumRamps
					}
				}
				pathTable[d][src][dst] = backing[from:len(backing):len(backing)]
			}
		}
	}
	for _, d := range []Direction{Clockwise, Counterclockwise} {
		for src := 0; src < NumRamps; src++ {
			for dst := 0; dst < NumRamps; dst++ {
				hops := Hops(RampID(src), RampID(dst), d)
				routeTable[d][src][dst] = route{
					segs: pathTable[d][src][dst],
					hops: hops,
					ok:   src != dst && hops <= NumRamps/2,
				}
			}
		}
	}
}

// pathSegments returns the segment indices used travelling from src to dst
// in direction d. The result is a view into a precomputed shared table and
// must not be mutated.
func pathSegments(src, dst RampID, d Direction) []int {
	return pathTable[d][src][dst]
}

// Command reserves a slot on the snooped command bus at or after earliest
// and returns the time the command phase completes (data phase may then
// begin).
func (e *EIB) Command(earliest sim.Time) sim.Time {
	tenths := int64(earliest) * 10
	if e.cmdNextTenths > tenths {
		tenths = e.cmdNextTenths
	}
	e.cmdNextTenths = tenths + e.cfg.CmdIntervalTenths
	e.perf.Commands++
	grant := sim.Time((tenths + 9) / 10)
	return grant + e.cfg.CmdLatency
}

// portsFit converges the source-out and destination-in port constraints
// to their joint fixed point at or after start: the earliest time both
// ports are free for dur cycles. oIdx/iIdx are resume floors from earlier
// calls against the same (unmutated) timelines at a time at or below
// start; the returned indices are the settle positions for the returned
// time, valid as resume floors for later calls and as insertion points
// for reserveIdx.
func (e *EIB) portsFit(src, dst RampID, start, dur sim.Time, oIdx, iIdx int) (sim.Time, int, int) {
	out, in := &e.out[src], &e.in[dst]
	for {
		f, oi, ok := out.tailFitNoGap(start)
		if !ok {
			f, oi = out.earliestFitFromNoGap(oIdx, start, dur)
		}
		oIdx = oi
		g, ii, ok := in.tailFitNoGap(f)
		if !ok {
			g, ii = in.earliestFitFromNoGap(iIdx, f, dur)
		}
		iIdx = ii
		if g == start {
			return start, oIdx, iIdx
		}
		start = g
	}
}

// Transfer schedules a data-ring transfer of the given size from src to
// dst, starting no earlier than earliest. done.Call(end) fires at the
// simulated time the last beat arrives at dst; per-packet hot paths pass
// a pooled completion record. Transfers between a ramp and itself (LS-to-LS
// within one SPE, handled locally) complete after the pure beat time
// without touching the rings.
func (e *EIB) Transfer(src, dst RampID, bytes int, earliest sim.Time, done sim.Callee) {
	end := e.transfer(src, dst, bytes, earliest)
	e.eng.AtCallee(end, done, end)
}

// transfer books the transfer on the timetable and returns the completion
// time.
func (e *EIB) transfer(src, dst RampID, bytes int, earliest sim.Time) sim.Time {
	if bytes <= 0 {
		panic("eib: transfer of zero bytes")
	}
	if src < 0 || src >= NumRamps || dst < 0 || dst >= NumRamps {
		panic(fmt.Sprintf("eib: bad ramp %d -> %d", src, dst))
	}
	beats := (bytes + e.cfg.BeatBytes - 1) / e.cfg.BeatBytes
	dur := sim.Time(beats) * e.cfg.BusPeriod
	if earliest < e.eng.Now() {
		earliest = e.eng.Now()
	}

	if src == dst {
		end := earliest + dur
		e.perf.Local(bytes) // local transfers wait on nothing, by definition
		e.record(TransferRecord{Issued: e.eng.Now(), Start: earliest, End: end, Src: src, Dst: dst, Bytes: bytes, Ring: -1})
		e.tracer.Emit(trace.RampTrack(int(src)), trace.KindTransfer,
			earliest, end, int64(bytes), -1, int64(dst), 0)
		return end
	}

	now := e.eng.Now()
	flow := int32(src)<<8 | int32(dst)

	// Injected ring-arbitration faults: a slowdown delays this transfer's
	// earliest grant; an outage takes one ring out of arbitration for this
	// transfer. With several rings per direction, skipping one always
	// leaves an eligible ring; with a single ring per direction an outage
	// could strand the transfer, so it is disabled there.
	earliest += e.faults.EIBSlow()
	outage := -1
	if e.cfg.RingsPerDirection > 1 {
		outage = e.faults.EIBOutage(len(e.rings))
	}

	// Ring-independent prepass: converge the source and destination port
	// constraints once. Every candidate ring's grant loop resumes from
	// this lower bound — the per-ring fixed point is at or above it, and
	// iterating a monotone constraint map from any point below its least
	// fixed point converges to the same fixed point, so the grant time is
	// bit-identical to starting each ring from earliest.
	//
	// The call is inlined for the all-tail case: when earliest clears both
	// ports' last reservations the fixed point is earliest itself (each
	// tail fit returns its input unchanged), which is the steady state of
	// every flow the command-phase latency holds back behind its own
	// previous packets.
	var start0 sim.Time
	var outIdx, inIdx int
	if f, oi, ok := e.out[src].tailFitNoGap(earliest); ok {
		if _, ii, ok2 := e.in[dst].tailFitNoGap(f); ok2 {
			start0, outIdx, inIdx = f, oi, ii
		} else {
			start0, outIdx, inIdx = e.portsFit(src, dst, earliest, dur, oi, 0)
		}
	} else {
		start0, outIdx, inIdx = e.portsFit(src, dst, earliest, dur, 0, 0)
	}

	// Candidate rings: those whose direction reaches dst in <= 6 hops,
	// precomputed per flow at construction (e.plan). For each, find the
	// earliest instant at which the source port, the destination port and
	// every path segment are simultaneously free for the whole duration
	// (iterated first-fit across the resources). Settle indices from each
	// earliestFitFrom call feed the next iteration as exact resume
	// floors, and the winning ring's final indices feed reserveIdx, so no
	// resource is ever searched twice.
	gap := e.cfg.RingDeadCycles
	cands := e.plan[src][dst].cand
	best := -1 // index into cands
	bestRing := -1
	var bestStart sim.Time
	var bestOutIdx, bestInIdx int
	var segIdx, bestSegIdx [NumRamps / 2]int
rings:
	for ci := range cands {
		c := &cands[ci]
		ri := int(c.ri)
		if ri == outage {
			e.perf.Abandons[src]++
			continue
		}
		r := &e.rings[ri]
		segs := c.segs
		start := start0
		oIdx, iIdx := outIdx, inIdx
		for k := range segs {
			segIdx[k] = 0
		}
		for {
			// Segments first: the ports are known-satisfied at start (the
			// prepass pins start0; later iterations re-verify below), so
			// in the common uncontended case a ring costs one pass over
			// its path segments and the ports are never searched again.
			next := start
			for k, s := range segs {
				f, si, ok := r.seg[s].tailFit(next, flow, gap)
				if !ok {
					f, si = r.seg[s].earliestFitFrom(segIdx[k], next, dur, flow, gap)
				}
				segIdx[k] = si
				if f > next {
					next = f
				}
			}
			if next == start {
				break
			}
			// The grant bound only ever moves later, so once it reaches
			// the best ring so far this ring is out of the running (ties
			// go to the earliest ring index, which the best ring holds).
			if best != -1 && next >= bestStart {
				e.perf.Denies[src]++
				continue rings
			}
			// A segment pushed the grant: re-converge the ports at the
			// pushed time before trusting it. The loop then re-verifies
			// the segments at the ports' fixed point, so a break only
			// happens with every constraint checked at start.
			start, oIdx, iIdx = e.portsFit(src, dst, next, dur, oIdx, iIdx)
			if best != -1 && start >= bestStart {
				e.perf.Denies[src]++
				continue rings
			}
		}
		if best == -1 || start < bestStart {
			best, bestRing, bestStart = ci, ri, start
			bestOutIdx, bestInIdx, bestSegIdx = oIdx, iIdx, segIdx
			if bestStart == start0 {
				// No later ring can improve on the port-constrained lower
				// bound, and ties go to the earliest ring index anyway.
				break
			}
		}
	}
	if best == -1 {
		panic(fmt.Sprintf("eib: no eligible ring %v -> %v", src, dst))
	}

	bestSegs := cands[best].segs
	r := &e.rings[bestRing]
	for k, s := range bestSegs {
		r.seg[s].reserveIdx(bestSegIdx[k], bestStart, dur, flow)
	}
	e.out[src].reserveIdx(bestOutIdx, bestStart, dur, flow)
	e.in[dst].reserveIdx(bestInIdx, bestStart, dur, flow)

	// Prune stale intervals after reserving, and only on the resources
	// that were reserved: a timeline only accumulates intervals through
	// reserve, so pruning winners bounds every timeline, while the search
	// above skips expired intervals via its binary-searched bound at the
	// same cost either way. (Grant times are unaffected: stale intervals
	// end at or before now <= earliest and can never push a fit.) The
	// pass is further amortized over transfers — every eighth is plenty
	// to keep the dead prefixes bounded.
	if e.pruneTick++; e.pruneTick&7 == 0 {
		for _, s := range bestSegs {
			r.seg[s].prune(now)
		}
		e.out[src].prune(now)
		e.in[dst].prune(now)
	}

	// The last beat arrives after the pipeline drains through the hops.
	end := bestStart + dur + sim.Time(cands[best].hops)*e.cfg.BusPeriod

	e.perf.Grant(int(src), int(dst), bestRing, uint64(dur), uint64(bestStart-earliest), bytes)
	e.record(TransferRecord{Issued: e.eng.Now(), Start: bestStart, End: end, Src: src, Dst: dst, Bytes: bytes, Ring: bestRing})

	e.tracer.Emit(trace.RampTrack(int(src)), trace.KindTransfer,
		bestStart, bestStart+dur, int64(bytes), int64(bestRing), int64(dst), int64(bestStart-earliest))
	if e.tracer.Enabled(trace.KindSegment) {
		for _, s := range bestSegs {
			e.tracer.Emit(trace.SegTrack(bestRing, s), trace.KindSegment,
				bestStart, bestStart+dur, int64(bytes), int64(src), int64(dst), 0)
		}
	}

	return end
}
