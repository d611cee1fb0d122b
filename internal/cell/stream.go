package cell

import (
	"fmt"

	"cellbe/internal/mfc"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
)

// dmaStream is the pair-family element kernel (pair/couples/cycle, the
// non-list variants) reified as an event-driven state machine instead of a
// spawned coroutine. The kernel behaviour is identical to the goroutine
// body it replaces — the same MFC calls with the same arguments, and the
// same engine events scheduled at the same execution points, so the
// engine's sequence counter advances identically and every simulated
// timestamp is unchanged. What changes is the host-side cost: advancing
// the kernel is a method call on a pooled record, not a pair of coroutine
// switches per park/activate. Being a plain record rather than a parked
// coroutine is also what lets a finished run's System be reset and reused
// (see Snapshot).
type dmaStream struct {
	idx    int // logical SPE the kernel runs on
	chunk  int
	slots  int
	iters  int64 // total iterations (one Get+Put per iteration)
	peerEA int64

	// Live progress, updated as the kernel advances. i is the current
	// iteration; op is the position inside the body: 0 = about to Get,
	// 1 = about to Put, 2 = in the final tag wait, 3 = done.
	i  int64
	op int

	eng  *sim.Engine
	spe  *spe.SPE
	dma  *mfc.MFC
	pc   int    // continuation point step resumes from
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

// Stream body positions (dmaStream.op).
const (
	streamOpGet = iota
	streamOpPut
	streamOpTagWait
	streamOpDone
)

// Continuation points (dmaStream.pc).
const (
	pcStart    = iota // first activation: begin iteration 0
	pcEnqGet          // issue cost paid: offer the Get to the queue
	pcEnqPut          // issue cost paid: offer the Put to the queue
	pcTagCheck        // status-read cost paid: poll the tag groups
	pcTagWake         // tag-group wake delivered: finish
)

// Park-site labels, reported for stalled kernels by the watchdog.
const (
	noteDMAIssue   = "dma-issue"
	noteDMAQfull   = "dma-qfull"
	noteTagChannel = "tag-channel"
	noteTagWait    = "tag-wait"
)

// streamTags is the tag mask the final wait drains: tag 0 carries the
// Gets, tag 1 the Puts.
const streamTags uint32 = 1<<0 | 1<<1

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
// subscription (an armed wake), or finishes. The loop structure mirrors
// the coroutine body exactly: an accepted command falls through inline to
// the next charge, just as the goroutine ran on within one activation.
func (d *dmaStream) step() {
	for {
		switch d.pc {
		case pcStart:
			if d.startIter() {
				return
			}
		case pcEnqGet:
			if !d.offer(false) {
				return
			}
			d.op = streamOpPut
			d.note = noteDMAIssue
			if d.delay(d.spe.DMAIssueCycles(), pcEnqPut) {
				return
			}
		case pcEnqPut:
			if !d.offer(true) {
				return
			}
			d.i++
			if d.startIter() {
				return
			}
		case pcTagCheck:
			if d.dma.TagsComplete(streamTags) {
				d.op = streamOpDone
				return
			}
			d.note = noteTagWait
			d.pc = pcTagWake
			d.wake.armed = true
			d.dma.WaitTagsCB(streamTags, &d.wake)
			return
		case pcTagWake:
			d.op = streamOpDone
			return
		}
	}
}

// startIter begins iteration d.i — or, past the loop bound, the final tag
// wait — charging the channel cycles the next queue attempt costs. It
// reports whether the continuation was scheduled (false: continue inline,
// the Wait(0) case).
func (d *dmaStream) startIter() bool {
	if d.i < d.iters {
		d.op = streamOpGet
		d.note = noteDMAIssue
		return d.delay(d.spe.DMAIssueCycles(), pcEnqGet)
	}
	d.op = streamOpTagWait
	d.note = noteTagChannel
	return d.delay(d.spe.TagStatusCycles(), pcTagCheck)
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

// offer presents the current iteration's Get or Put to the command queue.
// On ErrQueueFull it subscribes the wake record for the next free slot
// and reports false — the continuation point is unchanged, so the wake
// retries the same offer, the coroutine's retry loop.
func (d *dmaStream) offer(put bool) bool {
	slot := int(d.i % int64(d.slots))
	cmd := mfc.Cmd{Kind: mfc.Get, Tag: 0, LSAddr: pairGetBase + slot*d.chunk,
		EA: d.peerEA + int64(slot*d.chunk), Size: d.chunk}
	if put {
		cmd.Kind, cmd.Tag, cmd.LSAddr = mfc.Put, 1, pairPutBase+slot*d.chunk
	}
	err := d.dma.Enqueue(cmd, nil)
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
	d.dma.OnSpaceCB(&d.wake)
	return false
}

// installStream registers the stream kernel and schedules its first
// activation — the same immediate event a Spawn produced. The first
// installed stream also registers the watchdog liveness reporter, since
// state-machine kernels are invisible to the process registry.
func (sys *System) installStream(d *dmaStream) {
	d.eng = sys.Eng
	d.spe = sys.SPEs[d.idx]
	d.dma = d.spe.MFC()
	d.cont.d = d
	d.wake.d = d
	if len(sys.streams) == 0 {
		sys.Eng.OnLiveness(func() []string {
			var stuck []string
			for _, st := range sys.streams {
				if st.op != streamOpDone {
					stuck = append(stuck, fmt.Sprintf("spe%d (%s)", st.idx, st.note))
				}
			}
			return stuck
		})
	}
	sys.streams = append(sys.streams, d)
	sys.Eng.PostCallee(&d.cont, sys.Eng.Now())
}
