package spe

import (
	"encoding/binary"

	"cellbe/internal/sim"
)

// Atomic (lock-line reservation) operations for SPU programs, built on
// the MFC's getllar/putllc commands. The helpers (AtomicAdd32, Lock,
// Unlock) use the last 128-byte line of the local store as their scratch
// buffer — programs that use them must leave it free.

// atomicScratch is the reserved LS line used by the convenience helpers.
const atomicScratch = LocalStoreBytes - 128

// GetLLAR atomically loads the 128-byte line at ea into lsAddr and places
// a reservation. Blocks until the line arrives.
func (c *Context) GetLLAR(lsAddr int, ea int64) {
	c.issueCost()
	c.WaitCallee(func(cb sim.Callee) {
		c.spe.dma.GetLLAR(c.spe.index, lsAddr, ea, cb)
	})
}

// PutLLC conditionally stores the line at lsAddr back to ea; it reports
// whether the reservation held and the store was performed.
func (c *Context) PutLLC(lsAddr int, ea int64) bool {
	c.issueCost()
	var ok bool
	c.WaitCallee(func(cb sim.Callee) {
		c.spe.dma.PutLLC(c.spe.index, lsAddr, ea, func(success bool) {
			ok = success
			cb.Call(c.Now())
		})
	})
	return ok
}

// AtomicAdd32 atomically adds delta to the little-endian uint32 at ea
// (which must be line-aligned plus a 4-byte-aligned offset within the
// line) and returns the new value, retrying on reservation loss.
func (c *Context) AtomicAdd32(ea int64, delta uint32) uint32 {
	line := ea &^ 127
	off := int(ea - line)
	ls := c.spe.ls
	for {
		c.GetLLAR(atomicScratch, line)
		v := binary.LittleEndian.Uint32(ls[atomicScratch+off:]) + delta
		binary.LittleEndian.PutUint32(ls[atomicScratch+off:], v)
		if c.PutLLC(atomicScratch, line) {
			return v
		}
		c.Wait(20) // brief backoff before retrying
	}
}

// Lock acquires a spinlock: the uint32 at ea transitions 0 -> 1
// atomically. Contending SPEs back off exponentially, as Cell programming
// guides recommend to keep the lock line from ping-ponging.
func (c *Context) Lock(ea int64) {
	line := ea &^ 127
	off := int(ea - line)
	ls := c.spe.ls
	backoff := sim.Time(50)
	for {
		c.GetLLAR(atomicScratch, line)
		if binary.LittleEndian.Uint32(ls[atomicScratch+off:]) == 0 {
			binary.LittleEndian.PutUint32(ls[atomicScratch+off:], 1)
			if c.PutLLC(atomicScratch, line) {
				return
			}
		}
		c.Wait(backoff)
		if backoff < 1600 {
			backoff *= 2
		}
	}
}

// Unlock releases a spinlock acquired with Lock.
func (c *Context) Unlock(ea int64) {
	line := ea &^ 127
	off := int(ea - line)
	ls := c.spe.ls
	for {
		c.GetLLAR(atomicScratch, line)
		binary.LittleEndian.PutUint32(ls[atomicScratch+off:], 0)
		if c.PutLLC(atomicScratch, line) {
			return
		}
		c.Wait(20)
	}
}
