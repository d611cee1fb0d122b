package eib

import "cellbe/internal/sim"

// timeline tracks reservations of one physical resource (a ring segment or
// a ramp port) as a sorted list of disjoint busy intervals, supporting
// first-fit gap search. Unlike a single busy-until watermark, this lets a
// transfer slot into a gap *before* a reservation someone already booked
// further in the future — without it, long-latency paths (remote memory)
// would head-of-line-block short ones on shared ports.
//
// Intervals carry an owner (the flow, i.e. the src/dst pair). Ring
// segments charge a switching gap when consecutive reservations belong to
// different flows: a granted transfer streams gaplessly, but interleaving
// flows pay re-arbitration. This is what makes one flow per ring run at
// full rate while oversubscribed rings (the paper's saturated-EIB
// experiments) lose efficiency.
//
// timeline is the reference the EIB's grant path is checked against
// (oracleEIB): it stores busy time where the EIB stores free time. The
// live intervals are the window iv[head:]: prune advances
// the head cursor instead of re-slicing (re-slicing permanently discards
// the prefix capacity, so the slice crawls through its backing array and
// reallocates over and over). The expired prefix iv[:head] doubles as a
// free list of slots: a reserve that inserts near the front shifts the
// short prefix left into the freed cells instead of shifting the whole
// tail right, and once the dead prefix dominates, prune compacts the live
// window back to the start of the same backing array. Steady state does
// no allocation at all; all searches binary-search the (end-sorted,
// disjoint) live window instead of scanning it linearly.
type timeline struct {
	iv   []interval // backing store; live, sorted, disjoint range is iv[head:]
	head int        // amortized prune cursor: index of the first live interval
}

// compactAt is the dead-prefix length beyond which prune copies the live
// window back to the front of the backing array. Small enough to bound
// waste, large enough that each interval is moved O(1) times overall.
const compactAt = 32

type interval struct {
	s, e  sim.Time // [s, e)
	owner int32
}

// live returns the live (not yet pruned) intervals, sorted and disjoint.
func (t *timeline) live() []interval { return t.iv[t.head:] }

// prune discards intervals that ended at or before now; they can never
// affect a future reservation because earliest >= now always holds.
// The most recent pruned interval is kept so switching gaps against the
// immediately preceding transfer remain visible.
//
// The walk is linear rather than binary-searched: successive calls see
// nondecreasing now, so each interval is stepped over once in its
// lifetime — amortized O(1) per call, where a binary search would pay
// O(log live) every call whether or not anything expired.
func (t *timeline) prune(now sim.Time) {
	live := t.iv[t.head:]
	i := 0
	for i < len(live) && live[i].e <= now {
		i++
	}
	if i > 1 {
		t.head += i - 1
	}
	if t.head >= compactAt && 2*t.head >= len(t.iv) {
		n := copy(t.iv, t.iv[t.head:])
		t.iv = t.iv[:n]
		t.head = 0
	}
}

// earliestFit returns the earliest start >= earliest at which a duration
// dur fits, paying a switching gap of gap cycles against any neighbouring
// interval of a different owner.
func (t *timeline) earliestFit(earliest, dur sim.Time, owner int32, gap sim.Time) sim.Time {
	s, _ := t.earliestFitFrom(0, earliest, dur, owner, gap)
	return s
}

// earliestFitFrom is earliestFit with a resume floor: from is a live-window
// index below which no fit can exist. 0 is always valid; the index returned
// by a previous call remains valid for any later call whose earliest is at
// or above that call's result, provided the timeline was not mutated in
// between. (Monotonicity argument: an interval rejected at some candidate
// start stays rejected at any larger start, and interval ends are sorted,
// so the immediate predecessor dominates every earlier one.)
//
// The returned index is the settle position: the fit lies immediately
// before live interval idx (idx == len(live) for the open tail). It is
// simultaneously the exact insertion point for reserveIdx and the resume
// floor for the next call — this is what lets the EIB's fixed-point grant
// loop avoid re-searching each resource from scratch on every iteration.
func (t *timeline) earliestFitFrom(from int, earliest, dur sim.Time, owner int32, gap sim.Time) (sim.Time, int) {
	live := t.iv[t.head:]
	n := len(live)
	// Tail fast path: when earliest clears the last reservation, the fit
	// is at the open tail and only the final switching gap can matter.
	// This is the steady state of a flow with a resource to itself (each
	// grant lands just past its predecessor), which makes it the common
	// case in unsaturated runs.
	if n == 0 {
		return earliest, n
	}
	if last := live[n-1]; earliest >= last.e {
		if last.owner != owner && earliest < last.e+gap {
			return last.e + gap, n
		}
		return earliest, n
	}
	// Skip intervals that can constrain nothing: with e + gap <= earliest
	// they can neither overlap a start >= earliest nor push it via a
	// switching gap, and no fit can end before them. The bound is usually
	// within a couple of steps of from — pruned windows begin near now and
	// resumed calls pass their previous settle index — so probe linearly
	// first and fall back to a binary search only for a long stale run
	// (e.g. a segment that has not won, and so not pruned, in a while).
	bound := earliest - gap
	lo, hi := from, n
	for probes := 0; lo < hi && live[lo].e <= bound; {
		lo++
		if probes++; probes == 4 {
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if live[mid].e <= bound {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			break
		}
	}
	start := earliest
	for i := lo; ; i++ {
		// Minimum start after predecessor i-1 (plus switching gap when
		// the predecessor belongs to a different flow).
		if i > 0 {
			min := live[i-1].e
			if live[i-1].owner != owner {
				min += gap
			}
			if start < min {
				start = min
			}
		}
		if i == n {
			return start, n // open-ended tail
		}
		// Latest end that fits before successor i (minus switching gap
		// when the successor belongs to a different flow).
		limit := live[i].s
		if live[i].owner != owner {
			limit -= gap
		}
		if start+dur <= limit {
			return start, i
		}
	}
}

// earliestFitFromNoGap is earliestFitFrom specialized for gap == 0 (ramp
// ports, which charge no switching penalty): with no gap the owner can
// never matter, so the neighbour checks collapse to plain interval
// arithmetic. Port searches run inside every iteration of the EIB's grant
// fixed point, which makes this the hottest search variant.
func (t *timeline) earliestFitFromNoGap(from int, earliest, dur sim.Time) (sim.Time, int) {
	live := t.iv[t.head:]
	n := len(live)
	if n == 0 || earliest >= live[n-1].e { // tail fast path, as in earliestFitFrom
		return earliest, n
	}
	lo, hi := from, n
	for probes := 0; lo < hi && live[lo].e <= earliest; {
		lo++
		if probes++; probes == 4 {
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if live[mid].e <= earliest {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			break
		}
	}
	start := earliest
	for i := lo; ; i++ {
		if i > 0 && start < live[i-1].e {
			start = live[i-1].e
		}
		if i == n {
			return start, n
		}
		if start+dur <= live[i].s {
			return start, i
		}
	}
}

// reserve inserts [s, s+dur) with the given owner. The caller must have
// obtained s via earliestFit against the current state; overlapping
// reservations panic.
func (t *timeline) reserve(s, dur sim.Time, owner int32) {
	live := t.iv[t.head:]
	// Find insertion point (first live interval starting at or after s).
	lo, hi := 0, len(live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if live[mid].s < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t.reserveIdx(lo, s, dur, owner)
}

// reserveIdx is reserve with the insertion point already known — the
// settle index from the earliestFitFrom call that produced s. A wrong
// index cannot corrupt the timeline: any lo that is not the sorted
// insertion position trips one of the overlap panics below (the
// predecessor would end past s, or the successor would start before
// s+dur, both impossible at the true position).
func (t *timeline) reserveIdx(lo int, s, dur sim.Time, owner int32) {
	e := s + dur
	live := t.iv[t.head:]
	if lo > 0 && live[lo-1].e > s {
		panic("eib: overlapping reservation")
	}
	if lo < len(live) && live[lo].s < e {
		panic("eib: overlapping reservation")
	}
	// Merge with neighbours when contiguous and same-owner.
	mergePrev := lo > 0 && live[lo-1].e == s && live[lo-1].owner == owner
	mergeNext := lo < len(live) && live[lo].s == e && live[lo].owner == owner
	switch {
	case mergePrev && mergeNext:
		live[lo-1].e = live[lo].e
		copy(live[lo:], live[lo+1:])
		t.iv = t.iv[:len(t.iv)-1]
	case mergePrev:
		live[lo-1].e = e
	case mergeNext:
		live[lo].s = s
	case t.head > 0 && lo <= len(live)-lo:
		// Reuse a freed slot from the expired prefix: shifting the short
		// run [head, head+lo) left by one is cheaper than shifting the
		// tail right and avoids growing the slice.
		copy(t.iv[t.head-1:], t.iv[t.head:t.head+lo])
		t.head--
		t.iv[t.head+lo] = interval{s: s, e: e, owner: owner}
	default:
		t.iv = append(t.iv, interval{})
		copy(t.iv[t.head+lo+1:], t.iv[t.head+lo:])
		t.iv[t.head+lo] = interval{s: s, e: e, owner: owner}
	}
}
