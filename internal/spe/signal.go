package spe

import (
	"cellbe/internal/mfc"
	"cellbe/internal/sim"
)

// Signal notification registers: each SPE has two 32-bit SNRs that other
// units write by DMA to a memory-mapped address just above the SPE's
// local store in the EA map. In OR mode (the Cell's many-to-one mode,
// modeled here) writes accumulate bitwise, so several producers can
// signal one consumer without losing notifications. The SPU reads a
// register with a blocking channel read that returns and clears the
// accumulated value.

// SNROffset is the EA offset of SNR1 relative to the SPE's LS base; SNR2
// follows at +4. Both sit in the aperture hole above the 256 KB local
// store, matching the problem-state register area of the real chip.
const SNROffset = LocalStoreBytes

type snr struct {
	value   uint32
	pending bool
	waiters []sim.Callee
}

// WriteSignal ORs v into signal register reg (0 or 1). It is the
// fabric-side entry point (a 4-byte DMA landing on the SNR address).
func (s *SPE) WriteSignal(reg int, v uint32) {
	r := &s.snrs[reg]
	r.value |= v
	r.pending = true
	wakeAll(s.eng, &r.waiters)
}

// readSignal returns and clears the register once it has a value.
func (s *SPE) readSignal(p *sim.Process, reg int) uint32 {
	r := &s.snrs[reg]
	for !r.pending {
		p.WaitCallee(func(cb sim.Callee) { r.waiters = append(r.waiters, cb) })
	}
	v := r.value
	r.value = 0
	r.pending = false
	return v
}

// ReadSignal blocks the SPU until signal register reg (0 or 1) has been
// written, then returns and clears its accumulated OR value.
func (c *Context) ReadSignal(reg int) uint32 {
	if reg != 0 && reg != 1 {
		panic("spe: signal register must be 0 or 1")
	}
	c.Wait(c.spe.cfg.ChannelCycles)
	return c.spe.readSignal(c.Process, reg)
}

// TrySignal returns the register's value without blocking; ok reports
// whether a signal was pending.
func (c *Context) TrySignal(reg int) (uint32, bool) {
	if reg != 0 && reg != 1 {
		panic("spe: signal register must be 0 or 1")
	}
	c.Wait(c.spe.cfg.ChannelCycles)
	r := &c.spe.snrs[reg]
	if !r.pending {
		return 0, false
	}
	v := r.value
	r.value = 0
	r.pending = false
	return v, true
}

// Signal sends a 4-byte notification DMA to another SPE's signal register
// via its memory-mapped address (sndsig). The tag group tracks delivery
// like any other DMA. Eight rotating scratch words allow several signals
// to be in flight without overwriting each other's payload.
func (c *Context) Signal(targetEA int64, v uint32, tag int) {
	slot := c.spe.sigSeq % 8
	c.spe.sigSeq++
	scratch := atomicScratch + 64 + 4*slot
	putU32(c.spe.ls, scratch, v)
	c.enqueue(mfc.Cmd{Kind: mfc.Put, Tag: tag, LSAddr: scratch, EA: targetEA, Size: 4})
}

func putU32(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}
