// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is counted in CPU cycles of the simulated machine. All model
// components schedule callbacks on a shared Engine; events at the same
// timestamp fire in scheduling order, so a given model configuration always
// produces the same result.
//
// Besides plain events, the package offers coroutine Processes (used to
// write SPU programs as straight-line Go code that blocks on simulated
// time) and a few small building blocks (servers, token buckets, FIFO
// queues) shared by the hardware models.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
)

// Time is a point in simulated time, in CPU cycles.
type Time int64

// Forever is a time later than any event a simulation will ever schedule.
const Forever Time = 1<<62 - 1

// event is one scheduled callback: cb.Call(targ), or, when cb is nil,
// the pre-bound activation of proc, so a Process.Wait never goes through
// an interface or materializes a method-value closure (see Spawn/Wait).
// daemon events (see AtDaemon) never keep the simulation alive on their
// own.
type event struct {
	at     Time
	seq    int64
	cb     Callee
	targ   Time
	proc   *Process
	daemon bool
}

// Callee is the one way to be called back when something completes: an
// event target dispatched through an interface, given the Time argument
// its scheduler chose. Completion records that carry context (a DMA
// packet's copy parameters, say) implement it so hot paths can pool and
// reuse them: scheduling stores the two-word interface value in the event
// record, where a closure would allocate per event.
type Callee interface {
	Call(at Time)
}

// CalleeFunc adapts an ordinary function to Callee, for the callers of a
// Callee-based API that are off the hot paths (tests, rare protocol
// paths) and can afford the closure.
type CalleeFunc func(at Time)

// Call invokes f(at).
func (f CalleeFunc) Call(at Time) { f(at) }

// thunk is a closure without arguments stored as a Callee: At and
// AtDaemon keep their closure signatures on top of it.
// Converting a func value to an interface allocates nothing.
type thunk func()

func (f thunk) Call(Time) { f() }

// Timing-wheel geometry: wheelLevels levels of wheelSize buckets each.
// Level L buckets are 64^L cycles wide, so 11 levels of 64 cover the full
// 63-bit span of Time (6 bits * 11 = 66 >= 63), Forever included. Each
// level's occupancy is a single uint64 bitmap, so finding the next
// nonempty bucket is one TrailingZeros64.
const (
	wheelBits   = 6
	wheelSize   = 1 << wheelBits
	wheelMask   = wheelSize - 1
	wheelLevels = 11
)

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
//
// The pending-event queue is a hierarchical timing wheel rather than the
// binary min-heap it replaced (which was itself a replacement for the
// boxing container/heap). The heap paid O(log n) sift-up/sift-down per
// event with 56-byte element swaps; the wheel schedules with one append
// and dequeues with one TrailingZeros64, because events are bucketed by
// (at - cursor) and buckets at level 0 are one cycle wide. Two properties
// make it byte-identical to the heap:
//
//   - FIFO within a bucket. A level-0 bucket holds a single timestamp, and
//     every append to any bucket happens in increasing seq order (direct
//     schedules are globally seq-ordered; a cascade from level L moves a
//     seq-ordered bucket into lower levels before any direct insert can
//     target them, because direct inserts into a window are only possible
//     after the cursor has entered it — which is exactly when the cascade
//     runs). So draining buckets in time order yields (at, seq) order, the
//     heap's exact comparator.
//
//   - Level separation. An event's level is the highest bit position where
//     its timestamp differs from the cursor, so everything at level L+1
//     lies beyond the cursor's entire level-(L+1) window and therefore
//     after everything at level <= L. The earliest pending event is always
//     the earliest bucket of the lowest occupied level.
//
// On top of the wheel sits the same-cycle dispatch queue cur: the batch of
// events at the earliest pending timestamp, drained FIFO. The huge
// population of delay-0 events (PPE fill drains, process activations, MFC
// completion callbacks — see PostCallee) is appended straight to the live
// batch and never touches the wheel at all.
//
// Steady-state scheduling is allocation-free: buckets and the batch queue
// grow to their peak occupancy and are then reused for the rest of the run.
type Engine struct {
	now    Time
	seq    int64
	nfired int64

	npend   int // total pending events (cur tail + wheel)
	ndaemon int // pending daemon events (see AtDaemon)

	// cur is the staged batch: all pending events at timestamp curAt, in
	// seq order. cur[curHead:] is the undrained remainder; fired slots are
	// zeroed so callback references die promptly.
	cur     []event
	curHead int
	curAt   Time

	// cursor is the wheel reference time: every pending wheel event has
	// at >= cursor, and bucket indices are interpreted relative to the
	// cursor's window at each level. It trails at or ahead of now only
	// transiently (see stage).
	cursor  Time
	occ     [wheelLevels]uint64
	buckets [wheelLevels][wheelSize][]event

	// Watchdog state (see watchdog.go): every live spawned process (the
	// registry is compacted as processes finish, see reapProcess), and the
	// component diagnostic hooks consulted when building a DeadlockError.
	procs     []*Process
	procsDone int
	diags     []func() []string
	liveness  []func() []string
}

// NewEngine returns an engine with time set to zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its NewEngine state while keeping every
// allocation it has grown — the wheel's per-bucket event slices, the
// staged batch and the hook slices. It exists for warm-system recycling
// (cell.Arena): a reset engine must be observationally identical to a
// fresh one, including the sequence counter, so a rerun schedules the same
// events with the same (at, seq) keys and replays cycle-for-cycle.
func (e *Engine) Reset() {
	e.now, e.seq, e.nfired = 0, 0, 0
	e.npend, e.ndaemon = 0, 0
	clear(e.cur)
	e.cur = e.cur[:0]
	e.curHead, e.curAt = 0, 0
	e.cursor = 0
	for l := range e.buckets {
		for b := range e.buckets[l] {
			if bk := e.buckets[l][b]; len(bk) > 0 {
				clear(bk)
				e.buckets[l][b] = bk[:0]
			}
		}
		e.occ[l] = 0
	}
	clear(e.procs)
	e.procs = e.procs[:0]
	e.procsDone = 0
	e.diags = e.diags[:0]
	e.liveness = e.liveness[:0]
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful for tracing
// and for asserting that a model stays within an event budget). Daemon
// events are not counted: an observer never moves the figure.
func (e *Engine) Fired() int64 { return e.nfired }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.npend }

// PendingWork returns the number of pending non-daemon events: the events
// that keep the simulation running. Daemon observers (the trace metrics
// sampler) use it to decide whether to reschedule themselves.
func (e *Engine) PendingWork() int { return e.npend - e.ndaemon }

// staged reports whether cur holds an undrained batch.
func (e *Engine) staged() bool { return e.curHead < len(e.cur) }

// insert routes a new event to the staged batch (same timestamp), the
// same-cycle queue (at == now) or the wheel. The rare rewind path handles
// timestamps below the cursor, which only arise after a run was cut short
// between events (RunChecked budget exhaustion).
func (e *Engine) insert(ev event) {
	e.npend++
	if e.staged() {
		switch {
		case ev.at == e.curAt:
			e.cur = append(e.cur, ev)
		case ev.at > e.curAt:
			e.wheelInsert(ev)
		default:
			e.rewind()
			e.wheelInsert(ev)
		}
		return
	}
	if ev.at == e.now && e.cursor == e.now {
		// Same-cycle fast dispatch: join (or start) the batch at now.
		if e.curHead > 0 {
			e.cur = e.cur[:0]
			e.curHead = 0
		}
		e.curAt = ev.at
		e.cur = append(e.cur, ev)
		return
	}
	if ev.at < e.cursor {
		e.rewind()
	}
	e.wheelInsert(ev)
}

// wheelInsert files ev into the wheel. The level is the position of the
// highest bit where ev.at differs from the cursor; at that level the
// event is within the cursor's window and its bucket index is just the
// corresponding 6-bit digit of ev.at.
func (e *Engine) wheelInsert(ev event) {
	lvl := 0
	if d := uint64(ev.at ^ e.cursor); d != 0 {
		lvl = (bits.Len64(d) - 1) / wheelBits
	}
	i := int(ev.at>>(uint(lvl)*wheelBits)) & wheelMask
	b := e.buckets[lvl][i]
	if cap(b) == 0 {
		// First touch of this bucket: start at a useful capacity so the
		// warm-up doesn't crawl through the 1->2->4 growth steps (bucket
		// backings are retained across windows, so this is paid once).
		b = make([]event, 0, 8)
	}
	e.buckets[lvl][i] = append(b, ev)
	e.occ[lvl] |= 1 << uint(i)
}

// stage ensures cur holds the earliest pending batch, provided its
// timestamp is at or before limit. It reports whether such a batch is
// staged. Advancing cascades higher-level buckets down: the earliest
// bucket of the lowest occupied level is redistributed with the cursor
// moved to its window start, strictly descending in level, until the
// earliest events surface in a one-cycle level-0 bucket that is swapped
// into cur wholesale.
func (e *Engine) stage(limit Time) bool {
	if e.staged() {
		return e.curAt <= limit
	}
	if e.npend == 0 {
		return false
	}
	if len(e.cur) > 0 {
		e.cur = e.cur[:0]
		e.curHead = 0
	}
	for {
		if m := e.occ[0]; m != 0 {
			i := bits.TrailingZeros64(m)
			t := e.cursor&^wheelMask | Time(i)
			if t > limit {
				return false
			}
			e.occ[0] &^= 1 << uint(i)
			// Swap backings with cur rather than copying: the spent cur
			// backing (its entries were zeroed as they dispatched) becomes
			// the bucket's next backing. Capacities circulate between cur
			// and the hot buckets and converge on the workload's peak batch
			// size, so steady-state staging allocates and copies nothing.
			e.buckets[0][i], e.cur = e.cur[:0], e.buckets[0][i]
			e.curHead = 0
			e.curAt = t
			e.cursor = t
			return true
		}
		lvl := 1
		for lvl < wheelLevels && e.occ[lvl] == 0 {
			lvl++
		}
		if lvl == wheelLevels {
			return false
		}
		i := bits.TrailingZeros64(e.occ[lvl])
		shift := uint(lvl) * wheelBits
		width := Time(1) << (shift + wheelBits)
		t := e.cursor&^(width-1) | Time(i)<<shift
		if t > limit {
			return false
		}
		e.occ[lvl] &^= 1 << uint(i)
		b := e.buckets[lvl][i]
		e.cursor = t
		for k := range b {
			e.wheelInsert(b[k]) // strictly lower level: b itself is never a target
			b[k] = event{}
		}
		e.buckets[lvl][i] = b[:0]
	}
}

// rewind rebuilds the wheel from scratch with the cursor moved back to
// cover a timestamp below its current position. Every pending event is
// collected, restored to global seq order (which reproduces the exact
// per-bucket FIFO order of scheduling them fresh) and re-filed. This is
// the escape hatch for schedules below the cursor after an interrupted
// run; it never executes on the hot path.
func (e *Engine) rewind() {
	all := make([]event, 0, e.npend)
	minAt := e.now
	for _, ev := range e.cur[e.curHead:] {
		all = append(all, ev)
	}
	for i := e.curHead; i < len(e.cur); i++ {
		e.cur[i] = event{}
	}
	e.cur = e.cur[:0]
	e.curHead = 0
	for lvl := 0; lvl < wheelLevels; lvl++ {
		m := e.occ[lvl]
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &^= 1 << uint(i)
			b := e.buckets[lvl][i]
			all = append(all, b...)
			for k := range b {
				b[k] = event{}
			}
			e.buckets[lvl][i] = b[:0]
		}
		e.occ[lvl] = 0
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	for _, ev := range all {
		if ev.at < minAt {
			minAt = ev.at
		}
	}
	e.cursor = minAt
	for _, ev := range all {
		e.wheelInsert(ev)
	}
}

// At arranges for fn to run at absolute time t (>= Now). It is the
// closure form of AtCallee.
func (e *Engine) At(t Time, fn func()) {
	e.AtCallee(t, thunk(fn), 0)
}

// AtCallee arranges for cb.Call(arg) to run at absolute time t (>= Now).
// cb is typically a pooled object carrying the context a per-event
// closure would have captured, so scheduling it allocates nothing.
func (e *Engine) AtCallee(t Time, cb Callee, arg Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.seq++
	e.insert(event{at: t, seq: e.seq, cb: cb, targ: arg})
}

// PostCallee arranges for cb.Call(arg) to run at the current simulated
// time, after every event already scheduled for it. It is the same-cycle
// dispatch path used by wakeups and completion notifications (PPE fill
// drains, mailbox and tag-group releases), which join the live batch
// directly and never touch the wheel.
func (e *Engine) PostCallee(cb Callee, arg Time) {
	e.seq++
	e.insert(event{at: e.now, seq: e.seq, cb: cb, targ: arg})
}

// AtDaemon arranges for fn to run at absolute time t (>= Now) as a daemon
// event: it fires like any other event, but pending daemon events do not
// keep the simulation alive — Run and RunChecked stop once only daemons
// remain, without firing them. Periodic observers (the metrics sampler)
// use this so sampling never extends a run past its real last event.
func (e *Engine) AtDaemon(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.seq++
	e.ndaemon++
	e.insert(event{at: t, seq: e.seq, cb: thunk(fn), daemon: true})
}

// EveryDaemon arranges for fn to run every interval cycles as a daemon
// event, starting one interval from now. Each firing reschedules the next
// only while non-daemon work remains (PendingWork > 0), so a periodic
// observer never keeps a finished simulation alive or extends its final
// cycle count: the tail interval simply goes unsampled. Panics on a
// non-positive interval.
func (e *Engine) EveryDaemon(interval Time, fn func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: daemon interval %d must be positive", interval))
	}
	var tick func()
	tick = func() {
		fn()
		if e.PendingWork() > 0 {
			e.AtDaemon(e.now+interval, tick)
		}
	}
	e.AtDaemon(e.now+interval, tick)
}

// scheduleProc arranges for p to be activated after d cycles. The process
// pointer rides in the event record, so blocking a process never
// allocates a method-value closure.
func (e *Engine) scheduleProc(d Time, p *Process) {
	if d < 0 {
		panic(fmt.Sprintf("sim: schedule %d cycles into the past", -d))
	}
	e.seq++
	e.insert(event{at: e.now + d, seq: e.seq, proc: p})
}

// Step fires the next event, advancing time to it. It reports whether an
// event was fired (false when the queue is empty).
func (e *Engine) Step() bool {
	if !e.stage(Forever) {
		return false
	}
	ev := e.cur[e.curHead]
	e.cur[e.curHead] = event{} // drop callback references so they can be collected
	e.curHead++
	e.npend--
	if ev.daemon {
		e.ndaemon--
	} else {
		e.nfired++
	}
	e.now = ev.at
	if ev.cb != nil {
		ev.cb.Call(ev.targ)
	} else {
		ev.proc.activate()
	}
	return true
}

// Run fires events until only daemon events (if any) remain.
func (e *Engine) Run() {
	for e.PendingWork() > 0 {
		e.Step()
	}
}

// RunUntil fires events with timestamp <= t, then advances time to t. It
// reports whether any non-daemon events remain after t.
func (e *Engine) RunUntil(t Time) bool {
	for e.PendingWork() > 0 && e.stage(t) {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
	return e.PendingWork() > 0
}
