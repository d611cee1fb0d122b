//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// Process is a coroutine driven by the simulation engine. It lets model
// code (an SPU program, a PPU thread) be written as straight-line Go that
// blocks on simulated time or on simulated events, while the engine runs
// exactly one process at a time, keeping the simulation deterministic.
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

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine driving this process.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.Now() }

// Done reports whether the process body has returned.
func (p *Process) Done() bool { return p.done }

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

// WaitSignal blocks the process until s fires. If s has already fired it
// returns immediately without yielding.
func (p *Process) WaitSignal(s *Signal) {
	if s.fired {
		return
	}
	s.subs = append(s.subs, waiter{proc: p})
	p.park()
}

// WaitFunc blocks the process until wake is invoked. It hands the caller a
// wake function that is safe to call exactly once from any engine event.
func (p *Process) WaitFunc(arm func(wake func())) {
	woken := false
	arm(func() {
		if woken {
			panic("sim: WaitFunc wake called twice")
		}
		woken = true
		p.eng.scheduleProc(0, p)
	})
	p.park()
}

// WakeRecord is a process's reusable one-shot wake target: the Callee
// counterpart of the closure WaitFunc hands out. Each process owns at most
// one record, re-armed on every WaitCallee, so blocking on a Callee-based
// subscription never allocates.
type WakeRecord struct {
	p     *Process
	armed bool
}

// Call wakes the parked process. Firing an unarmed record panics, the
// WaitFunc double-wake discipline.
func (w *WakeRecord) Call(Time) {
	if !w.armed {
		panic("sim: WakeRecord fired while unarmed")
	}
	w.armed = false
	w.p.eng.scheduleProc(0, w.p)
}

// WaitCallee blocks the process until the handed Callee is called. It is
// WaitFunc with a reusable wake record instead of a fresh closure: arm
// registers the record with exactly one subscriber, which must Call it
// exactly once from an engine event.
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

// waiter is one Signal subscriber: either a plain callback or a pre-bound
// process activation (which avoids materializing a method-value closure
// per blocked process).
type waiter struct {
	fn   func()
	proc *Process
}

// Signal is a one-shot broadcast: processes and callbacks wait on it, and
// Fire releases all of them at the current simulated time.
type Signal struct {
	eng   *Engine
	fired bool
	subs  []waiter
}

// NewSignal returns an unfired signal bound to eng.
func NewSignal(eng *Engine) *Signal { return &Signal{eng: eng} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all waiters. Firing twice panics: signals are one-shot.
//
// All subscribers are released through a single drained event rather than
// one delay-0 event each. The observable order is identical: subscribers
// run back to back in subscription order, and anything they schedule gets
// a later sequence number than the drain event, exactly as it would have
// trailed the last per-subscriber event.
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	if len(s.subs) > 0 {
		s.eng.PostCallee((*signalDrain)(s), 0)
	}
}

// signalDrain is a Signal viewed as its drain event's target: posting the
// converted pointer allocates nothing, where the method value s.drain
// would allocate a closure per Fire.
type signalDrain Signal

func (d *signalDrain) Call(Time) { (*Signal)(d).drain() }

// drain releases every subscriber registered before Fire, in order.
func (s *Signal) drain() {
	subs := s.subs
	s.subs = nil
	for _, w := range subs {
		if w.proc != nil {
			w.proc.activate()
		} else {
			w.fn()
		}
	}
}

// OnFire registers fn to run when the signal fires (immediately scheduled
// if it already fired).
func (s *Signal) OnFire(fn func()) {
	if s.fired {
		s.eng.Post(fn)
		return
	}
	s.subs = append(s.subs, waiter{fn: fn})
}
