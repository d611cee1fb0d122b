package cell

import (
	"fmt"
	"math/rand"

	"cellbe/internal/mfc"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
)

// lane is the interpreter's per-lane input: one SPU's DMA program. Every
// data-moving scenario kind describes its kernels this way — the
// canonical kinds as one-phase programs, the workload library as its
// phase program — and the knobs only the paper's figure drivers vary
// (the sync interval, the partner) are plain lane inputs too.
type lane struct {
	idx    int     // logical SPE the program runs on
	chunk  int     // DMA element size in bytes
	list   bool    // group each phase's elements into DMA lists of up to 16 KB
	phases []Phase // the per-rep program (pattern.go semantics, plus the internal "copy" op)
	reps   int

	// Addresses. Memory phases address nslots chunk-sized slots of the
	// region at base ("copy" writes the same slot of the region at dst);
	// ring phases pull from getEA and push to putEA, cycling through the
	// pair slots.
	base, dst    int64
	nslots       int64
	getEA, putEA int64
	seed         int64 // seeded-random address stream of "rand" phases

	// syncEvery fences the tag groups in flight after every syncEvery
	// issued commands, on top of the phase-boundary fences (Figure 10's
	// delayed synchronization; 0 = phase boundaries only).
	syncEvery int
}

// dmaStream is the SPU DMA interpreter: a lane's program run as an
// event-driven record instead of a spawned coroutine. The program expands
// into three kinds of step, each firing exactly the engine events of the
// coroutine call it replaces:
//   - issue one element or list command, plain or fenced — the issue
//     charge, Enqueue and, on a full queue, an OnSpace wake that retries
//     the same command (spe.Context.enqueue);
//   - fence on tag groups — the status-read charge, a completion poll and,
//     if still busy, a WaitTags wake (spe.Context.WaitTagMask);
//   - compute — a plain delay, continuing inline for zero cycles
//     (sim.Process.Wait).
//
// The engine's sequence counter therefore advances identically and every
// simulated timestamp is unchanged. What changes is the host-side cost:
// advancing a kernel is a method call on a pooled record, not a pair of
// coroutine switches per park/activate. Being a plain record rather than
// a parked coroutine is also what lets a finished run's System be reset
// and reused (see Arena).
type dmaStream struct {
	lane

	// Program position: the rep and phase, the phase bytes issued so far,
	// whether the current compute phase has run, per-phase address
	// cursors, the get/put buffer slot rotations, the tag groups with DMA
	// in flight since the last phase fence, and the commands issued since
	// the last sync fence.
	rep, ph      int
	off          int64
	computed     bool
	cursors      [maxPatternPhases]int64
	gslot, pslot int
	pending      uint32
	issued       int
	rng          *rand.Rand

	// The current element's (or list's) commands, issued in order; q[qi-1]
	// is the one being offered. mask is the current fence's tag groups.
	q      [2]mfc.Cmd
	nq, qi int
	mask   uint32

	eng  *sim.Engine
	spe  *spe.SPE
	dma  *mfc.MFC
	pc   int    // continuation point step resumes from
	done bool   // program finished
	note string // current park-site label, printed by the liveness reporter

	// cont is the kernel's timer/continuation event target and wake its
	// one-shot subscription record — the state-machine counterparts of a
	// process's pre-bound activation event and its WakeRecord. Keeping
	// them as two distinct identities preserves the exact event sequence
	// of the coroutine version: a completion notification fires wake,
	// which schedules cont, the same two-event chain a WakeRecord wake
	// produced.
	cont dmaStreamCont
	wake dmaStreamWake
}

// Continuation points (dmaStream.pc).
const (
	pcNext     = iota // fetch and start the next step
	pcOffer           // issue charge paid: offer q[qi-1] to the queue
	pcTagCheck        // status-read charge paid: poll the fenced tag groups
)

// Park-site labels, reported for stalled kernels by the watchdog.
const (
	noteDMAIssue   = "dma-issue"
	noteDMAQfull   = "dma-qfull"
	noteTagChannel = "tag-channel"
	noteTagWait    = "tag-wait"
	noteCompute    = "compute"
)

// listWindow is the local-store span, at the base of each aperture, that
// DMA-list buffers cycle through.
const listWindow = 64 << 10

// dmaStreamCont is the stream's continuation event target: every timer
// expiry and wake-chain completion dispatches here, the way a process
// event dispatched to Process.activate.
type dmaStreamCont struct{ d *dmaStream }

// Call resumes the kernel at its continuation point.
func (c *dmaStreamCont) Call(sim.Time) { c.d.step() }

// dmaStreamWake is the stream's reusable one-shot subscription record —
// the state-machine WakeRecord. Queue-space and tag-group notifications
// are posted to it, and it schedules the continuation as a fresh event,
// replicating the notify-then-activate double event of the coroutine
// wake path (and with it the engine's sequence numbering).
type dmaStreamWake struct {
	d     *dmaStream
	armed bool
}

// Call forwards the notification to the kernel's continuation.
func (w *dmaStreamWake) Call(sim.Time) {
	if !w.armed {
		panic("cell: stream wake fired while unarmed")
	}
	w.armed = false
	w.d.eng.PostCallee(&w.d.cont, w.d.eng.Now())
}

// step advances the kernel from its continuation point until it blocks on
// simulated time (a scheduled cont event), on a queue-space or tag-group
// subscription (an armed wake), or finishes. An accepted command or a
// completed poll falls through inline to the next step, just as the
// coroutine ran on within one activation.
func (d *dmaStream) step() {
	for {
		switch d.pc {
		case pcNext:
			charge, pc, ok := d.next()
			if !ok {
				d.done = true
				return
			}
			if d.delay(charge, pc) {
				return
			}
		case pcOffer:
			if !d.offer() {
				return
			}
			d.pc = pcNext
		case pcTagCheck:
			d.pc = pcNext
			if !d.dma.TagsComplete(d.mask) {
				d.note = noteTagWait
				d.wake.armed = true
				d.dma.WaitTags(d.mask, &d.wake)
				return
			}
		}
	}
}

// delay sets the continuation point and schedules it c cycles out,
// reporting whether an event was scheduled. A zero charge continues
// inline without touching the engine, matching Process.Wait(0).
func (d *dmaStream) delay(c sim.Time, pc int) bool {
	d.pc = pc
	if c == 0 {
		return false
	}
	t := d.eng.Now() + c
	d.eng.AtCallee(t, &d.cont, t)
	return true
}

// next advances the program to its next step and returns the step's
// charge and continuation point; ok is false once the program is done.
// The walk is the loop nest reps > phases > elements (or lists) > their
// get and put, unrolled into a resumable position; a phase that is not
// Async ends with a fence on the tags in flight, and so does the
// program.
func (d *dmaStream) next() (charge sim.Time, pc int, ok bool) {
	for {
		if d.qi < d.nq {
			d.qi++
			d.note = noteDMAIssue
			return d.spe.DMAIssueCycles(), pcOffer, true
		}
		if d.nq > 0 {
			d.issued += d.nq
			d.nq, d.qi = 0, 0
			if d.syncEvery > 0 && d.issued >= d.syncEvery {
				// The tags stay pending: Figure 10's kernel fences once
				// more at the end even right after a sync.
				d.issued = 0
				return d.fence(d.pending)
			}
		}
		if d.rep == d.reps {
			if d.pending == 0 {
				return 0, 0, false
			}
			m := d.pending
			d.pending = 0
			return d.fence(m)
		}
		ph := &d.phases[d.ph]
		if ph.Access == "compute" {
			if !d.computed {
				d.computed = true
				d.note = noteCompute
				return sim.Time(ph.Cycles), pcNext, true
			}
		} else if d.off < ph.Bytes {
			d.fill(ph)
			continue
		}
		// Phase boundary.
		d.off, d.computed = 0, false
		if d.ph++; d.ph == len(d.phases) {
			d.ph = 0
			d.rep++
		}
		if !ph.Async && d.pending != 0 {
			m := d.pending
			d.pending = 0
			return d.fence(m)
		}
	}
}

// fence starts a tag-group fence on mask.
func (d *dmaStream) fence(mask uint32) (sim.Time, int, bool) {
	d.mask = mask
	d.note = noteTagChannel
	return d.spe.TagStatusCycles(), pcTagCheck, true
}

// fill queues the commands of the phase's next element — or, for a list
// lane, of its next list of up to listLength elements.
func (d *dmaStream) fill(ph *Phase) {
	per, lsOff := 1, 0
	var gets, puts []mfc.ListElem
	if d.list {
		per = listLength(d.chunk)
		lsOff = int(d.off % listWindow)
		if lsOff+per*d.chunk > listWindow {
			lsOff = 0
		}
		if ph.Access == "ring" || ph.Op != "put" {
			gets = make([]mfc.ListElem, 0, per)
		}
		if ph.Access == "ring" || ph.Op != "get" {
			puts = make([]mfc.ListElem, 0, per)
		}
	}
	for k := 0; k < per && d.off < ph.Bytes; k++ {
		d.off += int64(d.chunk)
		src, dst, gs, ps := d.element(ph)
		switch {
		case d.list:
			if src >= 0 {
				gets = append(gets, mfc.ListElem{EA: src, Size: d.chunk})
			}
			if dst >= 0 {
				puts = append(puts, mfc.ListElem{EA: dst, Size: d.chunk})
			}
		case ph.Op == "copy":
			// Figure 8(c): the slot's GETF and PUTF share its buffer and
			// its tag, so the put leaves only once its get has landed
			// while slots pipeline freely.
			tag := gs % mfc.NumTags
			d.push(mfc.Cmd{Kind: mfc.Get, Tag: tag, LSAddr: gs * d.chunk, EA: src, Size: d.chunk, Fence: true})
			d.push(mfc.Cmd{Kind: mfc.Put, Tag: tag, LSAddr: gs * d.chunk, EA: dst, Size: d.chunk, Fence: true})
			d.pending |= 1 << tag
		default:
			if src >= 0 {
				d.push(mfc.Cmd{Kind: mfc.Get, Tag: 0, LSAddr: pairGetBase + gs*d.chunk, EA: src, Size: d.chunk})
				d.pending |= 1 << 0
			}
			if dst >= 0 {
				d.push(mfc.Cmd{Kind: mfc.Put, Tag: 1, LSAddr: pairPutBase + ps*d.chunk, EA: dst, Size: d.chunk})
				d.pending |= 1 << 1
			}
		}
	}
	if len(gets) > 0 {
		d.push(mfc.Cmd{Kind: mfc.GetList, Tag: 0, LSAddr: pairGetBase + lsOff, List: gets})
		d.pending |= 1 << 0
	}
	if len(puts) > 0 {
		d.push(mfc.Cmd{Kind: mfc.PutList, Tag: 1, LSAddr: pairPutBase + lsOff, List: puts})
		d.pending |= 1 << 1
	}
}

func (d *dmaStream) push(c mfc.Cmd) {
	d.q[d.nq] = c
	d.nq++
}

// element advances the phase's address discipline by one element and
// returns the EAs its get reads and its put writes (-1 for a direction
// the op does not move) with the buffer slots they use.
func (d *dmaStream) element(ph *Phase) (src, dst int64, gs, ps int) {
	src, dst = -1, -1
	slots := pairSlots(d.chunk)
	chunk := int64(d.chunk)
	if ph.Access == "ring" {
		gs, ps = d.gslot%slots, d.pslot%slots
		d.gslot++
		d.pslot++
		return d.getEA + int64(gs)*chunk, d.putEA + int64(ps)*chunk, gs, ps
	}
	var slot int64
	switch ph.Access {
	case "rand":
		if d.rng == nil {
			d.rng = rand.New(rand.NewSource(d.seed))
		}
		slot = d.rng.Int63n(d.nslots)
	case "stride":
		slot = d.cursors[d.ph] % d.nslots
		d.cursors[d.ph] += ph.Stride / chunk
	default: // seq
		slot = d.cursors[d.ph] % d.nslots
		d.cursors[d.ph]++
	}
	ea := d.base + slot*chunk
	if ph.Op == "copy" {
		gs = d.gslot % copySlots(d.chunk)
		d.gslot++
		return ea, d.dst + slot*chunk, gs, gs
	}
	if ph.Op != "put" {
		src, gs = ea, d.gslot%slots
		d.gslot++
	}
	if ph.Op != "get" {
		dst, ps = ea, d.pslot%slots
		d.pslot++
	}
	return src, dst, gs, ps
}

// copySlots returns how many buffer slots, each with its own tag group,
// the copy op cycles through: up to 16 within a 128 KB window.
func copySlots(chunk int) int {
	return min(16, max(1, (128<<10)/chunk))
}

// offer presents the current command to the queue. On ErrQueueFull it
// subscribes the wake record for the next free slot and reports false —
// the continuation point is unchanged, so the wake retries the same
// offer, the coroutine's retry loop.
func (d *dmaStream) offer() bool {
	err := d.dma.Enqueue(d.q[d.qi-1], nil)
	if err == nil {
		return true
	}
	if err != mfc.ErrQueueFull {
		// Unreachable for a validated scenario; surfaced the way a
		// coroutine kernel's panic reached the driver.
		panic(&sim.ProcessPanic{Name: fmt.Sprintf("spe%d", d.idx),
			Value: &spe.CommandError{SPE: d.idx, Err: err}})
	}
	d.note = noteDMAQfull
	d.wake.armed = true
	d.dma.OnSpace(&d.wake)
	return false
}

// installStream loads l into a stream record — reusing one a recycled
// system kept — and schedules its first activation, the same immediate
// event a Spawn produced. The first installed stream also registers the
// watchdog liveness reporter, since state-machine kernels are invisible
// to the process registry.
func (sys *System) installStream(l lane) {
	n := len(sys.streams)
	if n < cap(sys.streams) {
		sys.streams = sys.streams[:n+1]
	} else {
		sys.streams = append(sys.streams, nil)
	}
	d := sys.streams[n]
	if d == nil {
		d = new(dmaStream)
		sys.streams[n] = d
	}
	*d = dmaStream{lane: l, eng: sys.Eng, spe: sys.SPEs[l.idx]}
	d.dma = d.spe.MFC()
	d.cont.d = d
	d.wake.d = d
	if n == 0 {
		sys.Eng.OnLiveness(func() []string {
			var stuck []string
			for _, st := range sys.streams {
				if !st.done {
					stuck = append(stuck, fmt.Sprintf("spe%d (%s)", st.idx, st.note))
				}
			}
			return stuck
		})
	}
	sys.Eng.PostCallee(&d.cont, sys.Eng.Now())
}
