package eib

import "cellbe/internal/sim"

// resource is one physical resource of the bus — a ring segment or a
// ramp port — held as the free time a transfer could still use rather
// than as the busy time booked on it: the end and owner of its last
// booking, and the holes before that end in which some transfer could
// start. Owners are flows (src/dst pairs). A ring segment charges a
// switching gap of RingDeadCycles between bookings of different flows;
// ports charge none, and book every transfer under one owner, 0.
//
// A hole is the free time [a, b) between two bookings, with their owners.
// Flow f may start x in it when x >= a, plus the gap if the booking before
// belongs to another flow, and x+dur <= b, minus the gap if the booking
// after does. A hole no flow could ever start in — shorter than the gaps
// it owes, like the exact switching gap between two flows that follow
// each other — is not kept, so a busy resource has few holes or none, and
// a grant at its tail is found without a search. Holes are sorted and
// disjoint; the first may be open to the left (a is emptyEnd). A hole
// that has ended by the current time can never take a grant, since every
// grant starts at or after it, and is dropped before the list grows.
type resource struct {
	end   sim.Time // end of the last booking, emptyEnd while there is none
	last  sim.Time // end of the last hole, emptyEnd while there is none
	owner int32    // owner of the last booking
	holes []hole
}

type hole struct {
	a, b          sim.Time // free [a, b)
	before, after int32    // owners of the bookings around it
}

// emptyEnd is the end of a resource with no booking: every start clears
// it, switching gap included.
const emptyEnd = sim.Time(-1 << 60)

// reset empties the resource while keeping its hole array, so a recycled
// EIB starts with the capacity its previous run grew.
func (r *resource) reset() {
	r.end, r.last, r.owner = emptyEnd, emptyEnd, 0
	r.holes = r.holes[:0]
}

// tailFit answers without the holes when it can: when no hole is left
// that a start at or after t could fit in, the earliest start the
// resource accepts is past its last booking — after the switching gap
// when another flow owns it — and tailFit returns it with ok set.
func (r *resource) tailFit(t, dur sim.Time, flow int32, gap sim.Time) (start sim.Time, ok bool) {
	if r.last >= t+dur {
		return t, false
	}
	if r.owner != flow {
		return max(t, r.end+gap), true
	}
	return max(t, r.end), true
}

// fit returns the earliest start at or after t where dur cycles fit on
// this resource for flow, paying gap against bookings of other flows.
func (r *resource) fit(t, dur sim.Time, flow int32, gap sim.Time) sim.Time {
	if s, ok := r.tailFit(t, dur, flow, gap); ok {
		return s
	}
	return r.holeFit(t, dur, flow, gap)
}

// holeFit is fit when tailFit cannot answer.
func (r *resource) holeFit(t, dur sim.Time, flow int32, gap sim.Time) sim.Time {
	// Holes that end before t+dur cannot take the transfer; the rest are
	// the last few, so step back from the end to the first of them.
	hs := r.holes
	i := len(hs) - 1
	for i > 0 && hs[i-1].b >= t+dur {
		i--
	}
	for ; i < len(hs); i++ {
		h := &hs[i]
		x, limit := max(t, h.a), h.b
		if h.before != flow {
			x = max(t, h.a+gap)
		}
		if h.after != flow {
			limit -= gap
		}
		if x+dur <= limit {
			return x
		}
	}
	if r.owner != flow {
		return max(t, r.end+gap)
	}
	return max(t, r.end)
}

// usable reports whether some flow could start a transfer in the free
// time [a, b) between bookings of flows before and after.
func usable(a, b sim.Time, before, after int32, gap sim.Time) bool {
	if before != after {
		return b-a > gap
	}
	return b > a
}

// book reserves [s, s+dur) for flow at time now. The caller found s with
// fit, so it lies at or past the tail or inside a hole; a booking that
// does not panics.
func (r *resource) book(s, dur sim.Time, flow int32, gap, now sim.Time) {
	e := s + dur
	if s >= r.end {
		if usable(r.end, s, r.owner, flow, gap) {
			r.insertHole(len(r.holes), hole{a: r.end, b: s, before: r.owner, after: flow}, now)
			r.last = s
		}
		r.end, r.owner = e, flow
		return
	}
	hs := r.holes
	i := len(hs) - 1
	for i >= 0 && hs[i].a > s {
		i--
	}
	if i < 0 || e > hs[i].b {
		panic("eib: overlapping reservation")
	}
	h := hs[i]
	left := hole{a: h.a, b: s, before: h.before, after: flow}
	right := hole{a: e, b: h.b, before: flow, after: h.after}
	keepL := usable(left.a, left.b, left.before, left.after, gap)
	keepR := usable(right.a, right.b, right.before, right.after, gap)
	switch {
	case keepL && keepR:
		hs[i] = left
		r.insertHole(i+1, right, now)
	case keepL:
		hs[i] = left
	case keepR:
		hs[i] = right
	default:
		r.holes = append(hs[:i], hs[i+1:]...)
	}
	r.last = emptyEnd
	if n := len(r.holes); n > 0 {
		r.last = r.holes[n-1].b
	}
}

// insertHole inserts h at index i of the sorted holes. A full array first
// drops the holes that ended by now — the first ones, all at or before i,
// since the holes after i end later than h starts, and h starts at or
// after now — and grows only when that frees less than a quarter of it,
// so each hole is moved O(1) times overall.
func (r *resource) insertHole(i int, h hole, now sim.Time) {
	if len(r.holes) == cap(r.holes) {
		k := 0
		for k < len(r.holes) && r.holes[k].b <= now {
			k++
		}
		if k > 0 && k >= cap(r.holes)/4 {
			r.holes = r.holes[:copy(r.holes, r.holes[k:])]
			i -= k
		}
	}
	r.holes = append(r.holes, hole{})
	copy(r.holes[i+1:], r.holes[i:])
	r.holes[i] = h
}
