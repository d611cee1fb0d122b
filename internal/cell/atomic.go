package cell

import (
	"fmt"

	"cellbe/internal/sim"
	"cellbe/internal/xdr"
)

// Lock-line reservation registry: the coherence point of the machine.
// GETLLAR places a reservation on a 128-byte line for one SPE; any write
// to the line — DMA from any SPE, a PPE writeback, or a winning PUTLLC —
// kills every reservation on it. This is what makes SPE spinlocks and
// atomic counters work on real Cell hardware.

type reservations struct {
	byLine map[int64]map[int]bool // line address -> reserving owners
}

func newReservations() *reservations {
	return &reservations{byLine: make(map[int64]map[int]bool)}
}

func (r *reservations) place(owner int, line int64) {
	set := r.byLine[line]
	if set == nil {
		set = make(map[int]bool)
		r.byLine[line] = set
	}
	set[owner] = true
}

func (r *reservations) holds(owner int, line int64) bool {
	return r.byLine[line][owner]
}

func (r *reservations) kill(line int64) {
	delete(r.byLine, line)
}

func lineOf(ea int64) int64 { return ea &^ (xdr.LineBytes - 1) }

// atomicLatency is the extra cost of the reservation bookkeeping relative
// to a plain line access.
const atomicLatency sim.Time = 20

// ReadLocked implements mfc.AtomicFabric: a line read plus a reservation.
func (f *fabric) ReadLocked(owner int, ea int64, earliest sim.Time, dst []byte, done sim.Callee) {
	sys := f.sys
	if _, _, isLS := sys.resolveLS(ea); isLS {
		panic(fmt.Sprintf("cell: atomics require a main-memory EA, got LS address %#x", ea))
	}
	sys.Mem.Read(f.ramp, ea, xdr.LineBytes, earliest, dst, sim.CalleeFunc(func(end sim.Time) {
		sys.resv.place(owner, lineOf(ea))
		fin := end + atomicLatency
		sys.Eng.AtCallee(fin, done, fin)
	}))
}

// CondWrite implements mfc.AtomicFabric: a conditional line store that
// succeeds only while the owner's reservation holds.
func (f *fabric) CondWrite(owner int, ea int64, earliest sim.Time, src []byte, done func(end sim.Time, ok bool)) {
	sys := f.sys
	if _, _, isLS := sys.resolveLS(ea); isLS {
		panic(fmt.Sprintf("cell: atomics require a main-memory EA, got LS address %#x", ea))
	}
	line := lineOf(ea)
	if !sys.resv.holds(owner, line) {
		// Lost reservation: fail fast after the command round trip.
		end := sys.Bus.Command(earliest) + atomicLatency
		sys.Eng.At(end, func() { done(end, false) })
		return
	}
	// The reservation is checked again at the coherence point when the
	// write lands (another write may race in between).
	sys.Mem.Write(f.ramp, ea, xdr.LineBytes, earliest, nil, sim.CalleeFunc(func(end sim.Time) {
		ok := sys.resv.holds(owner, line)
		if ok {
			sys.Mem.RAM().Write(ea, src[:xdr.LineBytes])
		}
		sys.resv.kill(line) // success or failure, this attempt clears it
		fin := end + atomicLatency
		sys.Eng.At(fin, func() { done(fin, ok) })
	}))
}
