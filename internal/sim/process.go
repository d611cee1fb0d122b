package sim

// Process is a coroutine driven by the simulation engine. It lets model
// code (an SPU program, a PPU thread) be written as straight-line Go that
// blocks on simulated time or on simulated events, while the engine runs
// exactly one process at a time, keeping the simulation deterministic.
//
// Implementation: the process body runs on its own goroutine, but control
// is handed back and forth over unbuffered channels so the engine and the
// process never run concurrently. Activations are scheduled as pre-bound
// process events (see Engine.scheduleProc), so blocking and waking a
// process allocates nothing.
type Process struct {
	eng    *Engine
	name   string
	resume chan struct{} // engine -> process
	yield  chan struct{} // process -> engine
	done   bool
	err    interface{} // panic value from the body, if any
	wake   *WakeRecord // lazily built reusable wake target (see WaitCallee)
}

// Spawn starts fn as a process at the current simulated time. fn receives
// the Process to block on. The process begins running at the next event
// the engine fires for it (scheduled immediately).
func Spawn(eng *Engine, name string, fn func(p *Process)) *Process {
	p := &Process{
		eng:    eng,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	go func() {
		<-p.resume // wait for first activation
		defer func() {
			if r := recover(); r != nil {
				p.err = r
			}
			p.done = true
			p.yield <- struct{}{}
		}()
		fn(p)
	}()
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
	p.resume <- struct{}{}
	<-p.yield
	if p.done {
		p.eng.reapProcess()
		if p.err != nil {
			// Re-raise as a typed value so simulation drivers can recover it
			// and surface the underlying error cleanly (see ProcessPanic).
			panic(&ProcessPanic{Name: p.name, Value: p.err})
		}
	}
}

// park blocks the process until something calls activate again. Must only
// be called from the process goroutine.
func (p *Process) park() {
	p.yield <- struct{}{}
	<-p.resume
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
		s.eng.Post(s.drain)
	}
}

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
