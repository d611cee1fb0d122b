//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// Process is a coroutine driven by the simulation engine. It lets model
// code (an SPU program) be written as straight-line Go that blocks on
// simulated time or on simulated events, while the engine runs exactly
// one process at a time, keeping the simulation deterministic.
//
// Implementation: the process body runs on a carrier, a runtime coroutine
// (iter.Pull) that the engine switches to directly: activate calls the
// carrier's next and the body blocks by yielding back, so control changes
// hands without a trip through the Go scheduler and the engine and the
// process never run concurrently. A carrier outlives its body and is
// reused by later processes (see carrier). Activations are scheduled as
// pre-bound process events (see Engine.scheduleProc), so blocking and
// waking a process allocates nothing.
type Process struct {
	eng  *Engine
	name string
	fn   func(p *Process)
	c    *carrier // running the body; nil before the first activation and once done
	done bool
	err  interface{} // panic value from the body, if any
	wake *WakeRecord // lazily built reusable wake target (see WaitCallee)
}

// Spawn starts fn as a process at the current simulated time. fn receives
// the Process to block on. The process begins running at the next event
// the engine fires for it (scheduled immediately).
func Spawn(eng *Engine, name string, fn func(p *Process)) *Process {
	p := &Process{eng: eng, name: name, fn: fn}
	eng.procs = append(eng.procs, p)
	eng.scheduleProc(0, p)
	return p
}

// activate transfers control to the process until it blocks or finishes.
// Must only be called from an engine event.
func (p *Process) activate() {
	if p.done {
		return
	}
	if p.c == nil {
		p.c = takeCarrier()
		p.c.p = p
	}
	p.c.next()
	if p.done {
		// Only now, with the carrier parked back at its loop's yield, may
		// another engine resume it.
		putCarrier(p.c)
		p.c = nil
		p.eng.reapProcess()
		if p.err != nil {
			// Re-raise as a typed value so simulation drivers can recover it
			// and surface the underlying error cleanly (see ProcessPanic).
			panic(&ProcessPanic{Name: p.name, Value: p.err})
		}
	}
}

// park blocks the process until something calls activate again. Must only
// be called from the process body.
func (p *Process) park() {
	if !p.c.yield(struct{}{}) {
		panic("sim: process carrier stopped while its body was parked")
	}
}

// run executes the body, recording a panic instead of letting it unwind
// the carrier, which stays reusable either way.
func (p *Process) run() {
	defer func() {
		if r := recover(); r != nil {
			p.err = r
		}
		p.done = true
	}()
	p.fn(p)
}

// carrier is a reusable process coroutine: an iter.Pull pair whose
// sequence loops "run the loaded body, yield". Creating one costs a
// goroutine and about a dozen allocations, so finished processes hand
// their carrier to an idle list for the next Spawn, on any engine, to
// take. A body that never finishes keeps its carrier parked for good, as
// it would keep a goroutine of its own. A body that calls runtime.Goexit
// ends its carrier: iter.Pull propagates the Goexit to the engine's
// goroutine, so the carrier never reaches the idle list.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Process // body to run on the next resume from idle
}

func newCarrier() *carrier {
	c := &carrier{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p := c.p
		c.p = nil
		p.run()
		if !yield(struct{}{}) {
			return // stopped while idle
		}
	}
}

// maxIdleCarriers caps the idle list. Each idle carrier is a parked
// goroutine with its stack, so the cap bounds what a burst of concurrent
// processes leaves behind; carriers beyond it are stopped. The list is a
// plain slice rather than a sync.Pool because a pooled entry the GC drops
// would strand its parked goroutine forever.
const maxIdleCarriers = 64

// carriers is the process-wide idle list, shared by every engine.
var carriers struct {
	mu   sync.Mutex
	idle []*carrier
}

func takeCarrier() *carrier {
	carriers.mu.Lock()
	if n := len(carriers.idle); n > 0 {
		c := carriers.idle[n-1]
		carriers.idle[n-1] = nil
		carriers.idle = carriers.idle[:n-1]
		carriers.mu.Unlock()
		return c
	}
	carriers.mu.Unlock()
	return newCarrier()
}

// putCarrier returns an idle carrier (parked at its loop's yield) to the
// list, or ends it when the list is full.
func putCarrier(c *carrier) {
	carriers.mu.Lock()
	if len(carriers.idle) < maxIdleCarriers {
		carriers.idle = append(carriers.idle, c)
		carriers.mu.Unlock()
		return
	}
	carriers.mu.Unlock()
	c.stop()
}

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.Now() }

// Wait blocks the process for d cycles of simulated time.
func (p *Process) Wait(d Time) {
	if d < 0 {
		panic("sim: Wait with negative duration")
	}
	if d == 0 {
		return
	}
	p.eng.scheduleProc(d, p)
	p.park()
}

// WakeRecord is a process's reusable one-shot wake target. Each process
// owns at most one record, re-armed on every WaitCallee, so blocking on a
// Callee-based subscription never allocates.
type WakeRecord struct {
	p     *Process
	armed bool
}

// Call wakes the parked process. Firing an unarmed record panics: a
// record fired twice for one wait is a subscriber bug.
func (w *WakeRecord) Call(Time) {
	if !w.armed {
		panic("sim: WakeRecord fired while unarmed")
	}
	w.armed = false
	w.p.eng.scheduleProc(0, w.p)
}

// WaitCallee blocks the process until the handed Callee is called: arm
// registers the process's wake record with exactly one subscriber, which
// must Call it exactly once from an engine event.
func (p *Process) WaitCallee(arm func(cb Callee)) {
	if p.wake == nil {
		p.wake = &WakeRecord{p: p}
	}
	if p.wake.armed {
		panic("sim: WaitCallee while already armed")
	}
	p.wake.armed = true
	arm(p.wake)
	p.park()
}
