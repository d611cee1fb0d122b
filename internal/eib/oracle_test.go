package eib

import (
	"fmt"

	"cellbe/internal/fault"
	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
)

// oracleEIB is the reference grant search the EIB is checked against: a
// per-resource interval timeline for every ring segment and ramp port,
// and a per-ring iterated first fit (segments, then ports, until neither
// moves the start). It books exactly what the EIB books and counts into
// its own counter block, so a differential test can replay one call
// stream through both and compare every end time and every counter.
type oracleEIB struct {
	cfg       Config
	dirs      []Direction // ring index -> direction
	seg       [][NumRamps]timeline
	out, in   [NumRamps]timeline
	pruneTick uint32
	faults    *fault.Injector
	perf      perfctr.EIBCounters
}

func newOracle(cfg Config) *oracleEIB {
	o := &oracleEIB{cfg: cfg}
	for d := Clockwise; d <= Counterclockwise; d++ {
		for i := 0; i < cfg.RingsPerDirection; i++ {
			o.dirs = append(o.dirs, d)
		}
	}
	o.seg = make([][NumRamps]timeline, len(o.dirs))
	return o
}

// portsFit converges the source-out and destination-in port constraints
// to their joint fixed point at or after start, resuming from the given
// settle indices.
func (o *oracleEIB) portsFit(src, dst RampID, start, dur sim.Time, oIdx, iIdx int) (sim.Time, int, int) {
	out, in := &o.out[src], &o.in[dst]
	for {
		f, oi := out.earliestFitFromNoGap(oIdx, start, dur)
		oIdx = oi
		g, ii := in.earliestFitFromNoGap(iIdx, f, dur)
		iIdx = ii
		if g == start {
			return start, oIdx, iIdx
		}
		start = g
	}
}

// transfer books one transfer and returns its completion time, exactly
// as EIB.transfer does (ramp-local transfers included).
func (o *oracleEIB) transfer(src, dst RampID, bytes int, earliest, now sim.Time) sim.Time {
	beats := (bytes + o.cfg.BeatBytes - 1) / o.cfg.BeatBytes
	dur := sim.Time(beats) * o.cfg.BusPeriod
	if earliest < now {
		earliest = now
	}
	if src == dst {
		o.perf.Local(bytes)
		return earliest + dur
	}
	flow := int32(src)<<8 | int32(dst)
	earliest += o.faults.EIBSlow()
	outage := -1
	if o.cfg.RingsPerDirection > 1 {
		outage = o.faults.EIBOutage(len(o.dirs))
	}
	start0, outIdx, inIdx := o.portsFit(src, dst, earliest, dur, 0, 0)

	gap := o.cfg.RingDeadCycles
	best, bestRing := -1, -1
	var bestStart sim.Time
	var bestOutIdx, bestInIdx int
	var segIdx, bestSegIdx [NumRamps / 2]int
rings:
	for ri, d := range o.dirs {
		rt := &routeTable[d][src][dst]
		if !rt.ok {
			continue
		}
		if ri == outage {
			o.perf.Abandons[src]++
			continue
		}
		seg := &o.seg[ri]
		start := start0
		oIdx, iIdx := outIdx, inIdx
		for k := range rt.segs {
			segIdx[k] = 0
		}
		for {
			next := start
			for k, s := range rt.segs {
				f, si := seg[s].earliestFitFrom(segIdx[k], next, dur, flow, gap)
				segIdx[k] = si
				if f > next {
					next = f
				}
			}
			if next == start {
				break
			}
			if best != -1 && next >= bestStart {
				o.perf.Denies[src]++
				continue rings
			}
			start, oIdx, iIdx = o.portsFit(src, dst, next, dur, oIdx, iIdx)
			if best != -1 && start >= bestStart {
				o.perf.Denies[src]++
				continue rings
			}
		}
		if best == -1 || start < bestStart {
			best, bestRing, bestStart = ri, ri, start
			bestOutIdx, bestInIdx, bestSegIdx = oIdx, iIdx, segIdx
			if bestStart == start0 {
				break
			}
		}
	}
	if best == -1 {
		panic(fmt.Sprintf("eib oracle: no eligible ring %v -> %v", src, dst))
	}
	rt := &routeTable[o.dirs[bestRing]][src][dst]
	seg := &o.seg[bestRing]
	for k, s := range rt.segs {
		seg[s].reserveIdx(bestSegIdx[k], bestStart, dur, flow)
	}
	o.out[src].reserveIdx(bestOutIdx, bestStart, dur, flow)
	o.in[dst].reserveIdx(bestInIdx, bestStart, dur, flow)
	if o.pruneTick++; o.pruneTick&7 == 0 {
		for _, s := range rt.segs {
			seg[s].prune(now)
		}
		o.out[src].prune(now)
		o.in[dst].prune(now)
	}
	o.perf.Grant(int(src), int(dst), bestRing, uint64(dur), uint64(bestStart-earliest), bytes)
	return bestStart + dur + sim.Time(rt.hops)*o.cfg.BusPeriod
}
