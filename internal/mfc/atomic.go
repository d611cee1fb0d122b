package mfc

import "cellbe/internal/sim"

// Atomic (lock-line reservation) support: the MFC's getllar/putllc/putlluc
// commands, the Cell's primitive for locks and lock-free structures. A
// GETLLAR loads a 128-byte line and establishes a reservation; a PUTLLC
// stores the line back only if no other party wrote the line in between.
//
// The reservation registry lives behind the fabric (the cell package owns
// the coherence point and kills reservations on every write to a line);
// the MFC side models the command timing: atomics bypass the ordinary
// 16-deep queue and execute immediately through a dedicated one-entry
// atomic unit.

// AtomicFabric is implemented by fabrics that support lock-line
// reservations. The done callback of ReadLocked fires when the line and
// its reservation are established; CondWrite reports success through its
// callback.
type AtomicFabric interface {
	Fabric
	// ReadLocked reads the 128-byte line at ea and places a reservation
	// for owner.
	ReadLocked(owner int, ea int64, earliest sim.Time, dst []byte, done sim.Callee)
	// CondWrite writes the line back iff owner's reservation on ea still
	// holds, reporting success.
	CondWrite(owner int, ea int64, earliest sim.Time, src []byte, done func(end sim.Time, ok bool))
}

// GetLLAR performs an atomic load-and-reserve of the 128-byte line at ea
// into lsAddr. owner identifies the reserving SPE. done fires at
// completion. Panics if the fabric has no atomic support.
func (m *MFC) GetLLAR(owner int, lsAddr int, ea int64, done sim.Callee) {
	af := m.fabric.(AtomicFabric)
	if ea%LineBytes != 0 || lsAddr%LineBytes != 0 {
		panic("mfc: getllar requires line alignment")
	}
	m.perf.Atomics++
	if m.taint != nil {
		m.taint(lsAddr, lsAddr+LineBytes)
	}
	af.ReadLocked(owner, ea, m.eng.Now(), m.ls[lsAddr:lsAddr+LineBytes], done)
}

// PutLLC performs a conditional store of the line at lsAddr to ea; ok is
// true when the reservation held and the store was performed.
func (m *MFC) PutLLC(owner int, lsAddr int, ea int64, done func(ok bool)) {
	af := m.fabric.(AtomicFabric)
	if ea%LineBytes != 0 || lsAddr%LineBytes != 0 {
		panic("mfc: putllc requires line alignment")
	}
	m.perf.Atomics++
	af.CondWrite(owner, ea, m.eng.Now(), m.ls[lsAddr:lsAddr+LineBytes], func(end sim.Time, ok bool) {
		done(ok)
	})
}
