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

// maxTime is later than any grant: the search limit of the first
// candidate ring.
const maxTime = sim.Time(1<<63 - 1)

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
	// RingDeadCycles is the switching gap a ring segment pays between
	// reservations of *different* flows (src/dst pairs): a granted flow
	// streams gaplessly, but interleaving flows re-arbitrate. Invisible
	// while each flow has a ring of its own; once more flows than rings
	// share a direction it cuts segment utilization — the EIB saturation
	// the paper observes with 4+ concurrent transfers. Zero or more.
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
	// seg[s] holds the bookings of segment s. For a clockwise ring,
	// segment s carries data from ramp s to ramp s+1; for a
	// counterclockwise ring, from ramp s to ramp s-1 (indexed by source).
	seg [NumRamps]resource
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

// EIB is the interconnect model. It is not safe for concurrent use: all
// calls must come from simulation events.
type EIB struct {
	eng   *sim.Engine
	cfg   Config
	rings []ring
	plan  [NumRamps][NumRamps]flowPlan
	out   [NumRamps]resource // source ramp data-out port
	in    [NumRamps]resource // destination ramp data-in port
	// cmdNextTenths is the command bus pacing cursor in tenths of a
	// cycle (fixed point, so fractional intervals pace exactly).
	cmdNextTenths int64
	faults        *fault.Injector
	tracer        *trace.Tracer
	perf          *perfctr.EIBCounters
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

// New returns an EIB bound to eng with the given configuration.
func New(eng *sim.Engine, cfg Config) *EIB {
	if cfg.BusPeriod <= 0 || cfg.BeatBytes <= 0 || cfg.RingsPerDirection <= 0 || cfg.RingDeadCycles < 0 {
		panic("eib: invalid config")
	}
	e := &EIB{eng: eng, cfg: cfg, perf: new(perfctr.EIBCounters)}
	for i := 0; i < cfg.RingsPerDirection; i++ {
		e.rings = append(e.rings, ring{dir: Clockwise})
	}
	for i := 0; i < cfg.RingsPerDirection; i++ {
		e.rings = append(e.rings, ring{dir: Counterclockwise})
	}
	e.clear()
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
// every resource's grown hole array. It reports false — leaving the
// EIB untouched — when cfg changes the ring count, since then the plan
// table no longer matches and the caller must build a fresh instance.
// Attachments (faults, tracer) are cleared exactly as on a fresh EIB;
// the counter block is left for the assembling layer to re-point.
func (e *EIB) Reset(cfg Config) bool {
	if cfg.BusPeriod <= 0 || cfg.BeatBytes <= 0 || cfg.RingsPerDirection <= 0 || cfg.RingDeadCycles < 0 {
		panic("eib: invalid config")
	}
	if cfg.RingsPerDirection != e.cfg.RingsPerDirection {
		return false
	}
	e.cfg = cfg
	e.clear()
	e.cmdNextTenths = 0
	e.faults, e.tracer = nil, nil
	return true
}

// clear empties every segment and port, keeping their hole arrays.
func (e *EIB) clear() {
	for ri := range e.rings {
		r := &e.rings[ri]
		for s := range r.seg {
			r.seg[s].reset()
		}
	}
	for i := range e.out {
		e.out[i].reset()
		e.in[i].reset()
	}
}

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

// fit returns the earliest start at or after at where dur cycles are
// free for flow on candidate c's path segments and on the src out and dst
// in ports: the first fit over the union of their blocked time. Each
// resource's own first fit is monotone in its argument, so cycling
// through the resources, each moving the start to its own first fit,
// stops at the least start that all of them accept. The caller passes an
// at that both ports accept. The search gives up at the first start at
// or after limit and returns it: the candidate cannot beat a grant there.
func (e *EIB) fit(c *ringCand, src, dst RampID, at, dur, limit sim.Time, flow int32) sim.Time {
	r := &e.rings[c.ri]
	gap := e.cfg.RingDeadCycles
	out, in := &e.out[src], &e.in[dst]
	// Bounds from the tails alone. Every resource accepts any start past
	// its tail, so the grant is at most ub. A resource with no hole left
	// that a start at or after at could fit in accepts nothing before its
	// tail, so the grant is at least lb. Most of the time they meet, and
	// that is the grant.
	ub := max(at, out.end, in.end)
	lb := at
	if out.last < at+dur {
		lb = max(lb, out.end)
	}
	if in.last < at+dur {
		lb = max(lb, in.end)
	}
	for _, s := range c.segs {
		sg := &r.seg[s]
		after := sg.end
		if sg.owner != flow {
			after += gap
		}
		ub = max(ub, after)
		if sg.last < at+dur {
			lb = max(lb, after)
		}
	}
	if lb == ub || lb >= limit {
		return lb
	}
	// Otherwise cycle through the resources from lb. quiet counts the
	// resources in a row that accept t: the ports accept at, and a
	// resource that moves t accepts where it moved it.
	segs := c.segs
	nres := len(segs) + 2
	t, quiet := lb, 2
	if lb > at {
		quiet = 0
	}
	for i := 0; quiet < nres; {
		res, owner, g := out, int32(0), sim.Time(0)
		switch i - len(segs) {
		case 0:
		case 1:
			res = in
		default:
			res, owner, g = &r.seg[segs[i]], flow, gap
		}
		nt, ok := res.tailFit(t, dur, owner, g)
		if !ok {
			nt = res.holeFit(t, dur, owner, g)
		}
		if nt != t {
			if nt >= limit {
				return nt
			}
			t, quiet = nt, 1
		} else {
			quiet++
		}
		if i++; i == nres {
			i = 0
		}
	}
	return t
}

// portsFit returns the earliest start at or after at where dur cycles
// are free on both the src out port and the dst in port.
func (e *EIB) portsFit(src, dst RampID, at, dur sim.Time) sim.Time {
	out, in := &e.out[src], &e.in[dst]
	t := at
	for {
		t = out.fit(t, dur, 0, 0)
		nt := in.fit(t, dur, 0, 0)
		if nt == t {
			return t
		}
		t = nt
	}
}

// Transfer schedules a data-ring transfer of the given size from src to
// dst, starting no earlier than earliest. done.Call(end) fires at the
// simulated time the last beat arrives at dst; per-packet hot paths pass
// a pooled completion record. Transfers between a ramp and itself (LS-to-LS
// within one SPE, handled locally) complete after the pure beat time
// without touching the rings.
func (e *EIB) Transfer(src, dst RampID, bytes int, earliest sim.Time, done sim.Callee) {
	end := e.transfer(src, dst, bytes, earliest, e.eng.Now())
	e.eng.AtCallee(end, done, end)
}

// transfer books the transfer on the timetable at simulated time now and
// returns the completion time.
func (e *EIB) transfer(src, dst RampID, bytes int, earliest, now sim.Time) sim.Time {
	if bytes <= 0 {
		panic("eib: transfer of zero bytes")
	}
	if src < 0 || src >= NumRamps || dst < 0 || dst >= NumRamps {
		panic(fmt.Sprintf("eib: bad ramp %d -> %d", src, dst))
	}
	beats := (bytes + e.cfg.BeatBytes - 1) / e.cfg.BeatBytes
	dur := sim.Time(beats) * e.cfg.BusPeriod
	if earliest < now {
		earliest = now
	}

	if src == dst {
		end := earliest + dur
		e.perf.Local(bytes) // local transfers wait on nothing, by definition
		e.tracer.Emit(trace.RampTrack(int(src)), trace.KindTransfer,
			earliest, end, int64(bytes), -1, int64(dst), 0)
		return end
	}

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

	// The ports come first: they do not depend on the ring, so their
	// joint first fit is a lower bound for every candidate, and each
	// candidate's search starts there.
	start0 := earliest
	if earliest < e.out[src].end || earliest < e.in[dst].end {
		start0 = e.portsFit(src, dst, earliest, dur)
	}

	// Candidate rings — those whose direction reaches dst in <= 6 hops,
	// precomputed per flow in e.plan — are searched in ring-index order,
	// and ties go to the lowest index. Once a grant exists, a candidate
	// that cannot start before it is denied, and a grant at the ports'
	// lower bound ends the search: no later ring can beat it.
	gap := e.cfg.RingDeadCycles
	cands := e.plan[src][dst].cand
	best := -1 // index into cands
	var bestStart sim.Time
	for ci := range cands {
		c := &cands[ci]
		if int(c.ri) == outage {
			e.perf.Abandons[src]++
			continue
		}
		limit := sim.Time(maxTime)
		if best != -1 {
			limit = bestStart
		}
		t := e.fit(c, src, dst, start0, dur, limit, flow)
		if t >= limit {
			e.perf.Denies[src]++
			continue
		}
		best, bestStart = ci, t
		if t == start0 {
			break
		}
	}
	if best == -1 {
		panic(fmt.Sprintf("eib: no eligible ring %v -> %v", src, dst))
	}

	c := &cands[best]
	bestRing := int(c.ri)
	r := &e.rings[bestRing]
	for _, s := range c.segs {
		r.seg[s].book(bestStart, dur, flow, gap, now)
	}
	e.out[src].book(bestStart, dur, 0, 0, now)
	e.in[dst].book(bestStart, dur, 0, 0, now)

	// The last beat arrives after the pipeline drains through the hops.
	end := bestStart + dur + sim.Time(c.hops)*e.cfg.BusPeriod

	e.perf.Grant(int(src), int(dst), bestRing, uint64(dur), uint64(bestStart-earliest), bytes)

	e.tracer.Emit(trace.RampTrack(int(src)), trace.KindTransfer,
		bestStart, bestStart+dur, int64(bytes), int64(bestRing), int64(dst), int64(bestStart-earliest))
	if e.tracer.Enabled(trace.KindSegment) {
		for _, s := range c.segs {
			e.tracer.Emit(trace.SegTrack(bestRing, s), trace.KindSegment,
				bestStart, bestStart+dur, int64(bytes), int64(src), int64(dst), 0)
		}
	}

	return end
}
