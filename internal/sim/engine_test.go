package sim

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 2) })
	e.At(5, func() { got = append(got, 1) })
	e.At(10, func() { got = append(got, 3) }) // same time: scheduling order
	e.At(20, func() { got = append(got, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("final time %d, want 20", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if e.Now() < 50 {
			e.At(e.Now()+10, tick)
		}
	}
	e.At(0, tick)
	e.Run()
	if len(ticks) != 6 {
		t.Fatalf("got %d ticks, want 6: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		if at != Time(i*10) {
			t.Fatalf("tick %d at %d, want %d", i, at, i*10)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(30, func() { fired++ })
	more := e.RunUntil(20)
	if !more {
		t.Fatal("RunUntil(20) should report remaining events")
	}
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("now %d, want 20", e.Now())
	}
	if e.RunUntil(100) {
		t.Fatal("no events should remain")
	}
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past should panic")
		}
	}()
	e.At(e.Now()-1, func() {})
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue should report false")
	}
	if e.Pending() != 0 {
		t.Fatal("empty queue should have no pending events")
	}
}

// Property: no matter the set of delays, events fire in nondecreasing time
// order and the engine ends at the max timestamp.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var max Time
		prev := Time(-1)
		ok := true
		for _, d := range delays {
			at := Time(d)
			if at > max {
				max = at
			}
			e.At(at, func() {
				if e.Now() < prev {
					ok = false
				}
				prev = e.Now()
			})
		}
		e.Run()
		if len(delays) == 0 {
			return true
		}
		return ok && e.Now() == max && e.Fired() == int64(len(delays))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcessWait(t *testing.T) {
	e := NewEngine()
	var trace []Time
	Spawn(e, "a", func(p *Process) {
		trace = append(trace, p.Now())
		p.Wait(5)
		trace = append(trace, p.Now())
		p.Wait(0)
		trace = append(trace, p.Now())
		p.Wait(7)
		trace = append(trace, p.Now())
	})
	e.Run()
	want := []Time{0, 5, 5, 12}
	for i, w := range want {
		if trace[i] != w {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	Spawn(e, "a", func(p *Process) {
		for i := 0; i < 3; i++ {
			order = append(order, "a")
			p.Wait(10)
		}
	})
	Spawn(e, "b", func(p *Process) {
		p.Wait(5)
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			p.Wait(10)
		}
	})
	e.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestProcessWaitCallee(t *testing.T) {
	e := NewEngine()
	var wake Callee
	var wokeAt Time = -1
	Spawn(e, "w", func(p *Process) {
		p.WaitCallee(func(cb Callee) { wake = cb })
		wokeAt = p.Now()
	})
	e.At(9, func() { wake.Call(e.Now()) })
	e.Run()
	if wokeAt != 9 {
		t.Fatalf("woke at %d, want 9", wokeAt)
	}
}

// TestWakeRecordDoubleFirePanics: a wake record fired twice for one wait
// is a subscriber bug, and the only check that catches it for mailbox,
// signal-register and atomic waits.
func TestWakeRecordDoubleFirePanics(t *testing.T) {
	e := NewEngine()
	var wake Callee
	var wokeAt Time = -1
	Spawn(e, "w", func(p *Process) {
		p.WaitCallee(func(cb Callee) { wake = cb })
		wokeAt = p.Now()
	})
	var got interface{}
	e.At(5, func() {
		wake.Call(e.Now())
		defer func() { got = recover() }()
		wake.Call(e.Now())
	})
	e.Run()
	if got != "sim: WakeRecord fired while unarmed" {
		t.Fatalf("second fire recovered %v, want the unarmed-record panic", got)
	}
	if wokeAt != 5 {
		t.Fatalf("woke at %d, want 5 (once, from the first fire)", wokeAt)
	}
}

// TestWaitCalleeWhileArmedPanics: a process cannot wait on a second
// subscription while its wake record is still armed for the first.
func TestWaitCalleeWhileArmedPanics(t *testing.T) {
	e := NewEngine()
	var got interface{}
	Spawn(e, "w", func(p *Process) {
		defer func() { got = recover() }()
		p.WaitCallee(func(Callee) {
			p.WaitCallee(func(Callee) { t.Error("nested WaitCallee armed its subscriber") })
		})
	})
	e.Run()
	if got != "sim: WaitCallee while already armed" {
		t.Fatalf("nested WaitCallee recovered %v, want the armed-record panic", got)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	Spawn(e, "boom", func(p *Process) {
		p.Wait(1)
		panic("kaboom")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("process panic should propagate to the engine")
		}
	}()
	e.Run()
}

// idleCarriers reports the length of the shared carrier idle list.
func idleCarriers() int {
	carriers.mu.Lock()
	defer carriers.mu.Unlock()
	return len(carriers.idle)
}

// TestProcessCarrierReusedAfterPanic: a panicking body still surfaces as
// *ProcessPanic, and the carrier it ran on goes back to the idle list in
// working order — the next Spawn takes that very carrier and runs a normal
// body on it.
func TestProcessCarrierReusedAfterPanic(t *testing.T) {
	var boomCarrier *carrier
	func() {
		e := NewEngine()
		Spawn(e, "boom", func(p *Process) {
			boomCarrier = p.c
			p.Wait(1)
			panic("kaboom")
		})
		defer func() {
			if pp, ok := recover().(*ProcessPanic); !ok || pp.Name != "boom" {
				t.Fatalf("want *ProcessPanic from boom, got %v", pp)
			}
		}()
		e.Run()
	}()

	e := NewEngine()
	var reused *carrier
	var at Time
	p := Spawn(e, "after", func(p *Process) {
		reused = p.c
		p.Wait(3)
		at = p.Now()
	})
	e.Run()
	if reused != boomCarrier {
		t.Fatal("next Spawn did not reuse the carrier of the panicked process")
	}
	if !p.done || at != 3 {
		t.Fatalf("body on the reused carrier: done=%v at=%d, want done at 3", p.done, at)
	}
}

// TestProcessSpawnsProcess: a body may spawn another process, which runs on
// its own carrier and interleaves with its parent by simulated time.
func TestProcessSpawnsProcess(t *testing.T) {
	e := NewEngine()
	var order []string
	Spawn(e, "parent", func(p *Process) {
		var childDone Callee
		Spawn(e, "child", func(c *Process) {
			order = append(order, "child start")
			c.Wait(4)
			order = append(order, "child end")
			childDone.Call(c.Now())
		})
		p.Wait(2)
		order = append(order, "parent mid")
		p.WaitCallee(func(cb Callee) { childDone = cb })
		order = append(order, "parent end")
		if p.Now() != 4 {
			t.Errorf("parent resumed at %d, want 4", p.Now())
		}
	})
	e.Run()
	want := []string{"child start", "parent mid", "child end", "parent end"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestProcessCarrierIdleCap: finished processes return their carriers to
// the idle list, which never exceeds its cap, and carriers beyond the cap
// are stopped — the goroutine count, less idle carriers, returns to its
// baseline after both sequential reuse and a burst of 200 live processes.
func TestProcessCarrierIdleCap(t *testing.T) {
	overhead := func() int { return runtime.NumGoroutine() - idleCarriers() }
	base := overhead()

	e := NewEngine()
	for i := 0; i < 200; i++ {
		Spawn(e, "seq", func(p *Process) { p.Wait(1) })
		e.Run()
	}
	burst := NewEngine()
	for i := 0; i < 200; i++ {
		Spawn(burst, "burst", func(p *Process) { p.Wait(Time(1 + i%7)) })
	}
	burst.Run()
	if n := idleCarriers(); n > maxIdleCarriers {
		t.Fatalf("%d idle carriers, cap %d", n, maxIdleCarriers)
	}
	got := overhead()
	for deadline := time.Now().Add(2 * time.Second); got > base && time.Now().Before(deadline); got = overhead() {
		time.Sleep(10 * time.Millisecond)
	}
	if got > base {
		t.Fatalf("goroutines beside idle carriers grew %d -> %d: stopped carriers leaked", base, got)
	}
}

// TestProcessCarriersSharedAcrossEngines: engines on different goroutines
// draw from the one idle list. Handing a token back and forth, each side
// must take the carrier the other side just released; then both sides
// churn at once (the race detector checks the hand-over).
func TestProcessCarriersSharedAcrossEngines(t *testing.T) {
	const rounds = 50
	run := func(e *Engine) (*carrier, Time) {
		var c *carrier
		var at Time
		Spawn(e, "shared", func(p *Process) {
			c = p.c
			p.Wait(2)
			p.Wait(3)
			at = p.Now()
		})
		e.Run()
		return c, at
	}

	used := make([]*carrier, 2*rounds)
	tokens := [2]chan int{make(chan int), make(chan int)}
	var wg sync.WaitGroup
	for side := 0; side < 2; side++ {
		side := side
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine()
			for i := range tokens[side] {
				start := e.Now()
				c, at := run(e)
				if at != start+5 {
					t.Errorf("side %d round %d finished at %d, want %d", side, i, at, start+5)
				}
				used[i] = c
				if i+1 == 2*rounds {
					close(tokens[0])
					close(tokens[1])
					return
				}
				tokens[1-side] <- i + 1
			}
		}()
	}
	tokens[0] <- 0
	wg.Wait()
	for i := 1; i < len(used); i++ {
		if used[i] != used[i-1] {
			t.Fatalf("round %d ran on a fresh carrier instead of the one round %d released", i, i-1)
		}
	}

	for side := 0; side < 2; side++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine()
			for i := 0; i < 200; i++ {
				start := e.Now()
				if _, at := run(e); at != start+5 {
					t.Errorf("concurrent round %d finished at %d, want %d", i, at, start+5)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerFIFO(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Request(10, CalleeFunc(func(start Time) { ends = append(ends, e.Now()) }))
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestServerLateArrival(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var ends []Time
	s.Request(10, CalleeFunc(func(Time) { ends = append(ends, e.Now()) }))
	e.At(25, func() {
		s.Request(5, CalleeFunc(func(Time) { ends = append(ends, e.Now()) }))
	})
	e.Run()
	if ends[0] != 10 || ends[1] != 30 {
		t.Fatalf("ends %v, want [10 30]", ends)
	}
}

func TestServerReserve(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	if got := s.Reserve(5, 10); got != 5 {
		t.Fatalf("first reserve start %d, want 5", got)
	}
	if got := s.Reserve(0, 10); got != 15 {
		t.Fatalf("second reserve start %d, want 15", got)
	}
	if got := s.Reserve(100, 10); got != 100 {
		t.Fatalf("third reserve start %d, want 100", got)
	}
}

func TestTokenBucket(t *testing.T) {
	e := NewEngine()
	b := NewTokenBucket(e, 4)
	if got := b.Take(0); got != 0 {
		t.Fatalf("token 0 at %d, want 0", got)
	}
	if got := b.Take(0); got != 4 {
		t.Fatalf("token 1 at %d, want 4", got)
	}
	if got := b.Take(100); got != 100 {
		t.Fatalf("token after idle at %d, want 100", got)
	}
	if got := b.Take(0); got != 104 {
		t.Fatalf("token at %d, want 104", got)
	}
}

// Property: a server serving n requests of duration d is busy exactly n*d
// cycles with no gaps when all requests arrive at time zero.
func TestServerThroughputProperty(t *testing.T) {
	f := func(n uint8, d uint8) bool {
		if n == 0 || d == 0 {
			return true
		}
		e := NewEngine()
		s := NewServer(e)
		var last Time
		for i := 0; i < int(n); i++ {
			s.Request(Time(d), CalleeFunc(func(Time) { last = e.Now() }))
		}
		e.Run()
		return last == Time(n)*Time(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcessAccessors(t *testing.T) {
	e := NewEngine()
	var p *Process
	p = Spawn(e, "worker", func(proc *Process) {
		if proc.name != "worker" {
			t.Error("name wrong")
		}
		if proc.eng != e {
			t.Error("engine wrong")
		}
		proc.Wait(5)
	})
	if p.done {
		t.Fatal("process must not be done before running")
	}
	e.Run()
	if !p.done {
		t.Fatal("process must be done after the engine drains")
	}
}

func TestServerAccessors(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	s.Request(10, CalleeFunc(func(Time) {}))
	s.Request(10, CalleeFunc(func(Time) {}))
	if s.queue.Len() != 1 {
		t.Fatalf("queue len %d, want 1 (one in service, one queued)", s.queue.Len())
	}
	if s.busyUntil != 10 {
		t.Fatalf("busy until %d, want 10", s.busyUntil)
	}
	e.Run()
	if s.queue.Len() != 0 {
		t.Fatal("queue must drain")
	}
}

// TestFIFOMatchesSlice drives a FIFO and a plain slice queue with the same
// random pushes and pops: they must agree on every popped value, and a
// steady backlog must run in a bounded backing array without allocating.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var ref []int
	for i := 0; i < 10000; i++ {
		if len(ref) == 0 || rng.Intn(3) > 0 {
			q.Push(i)
			ref = append(ref, i)
		} else if got, want := q.Pop(), ref[0]; got != want {
			t.Fatalf("step %d: popped %d, want %d", i, got, want)
		} else {
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", i, q.Len(), len(ref))
		}
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("reset queue holds %d entries", q.Len())
	}
	q = FIFO[int]{}
	for i := 0; i < 16; i++ {
		q.Push(i)
	}
	for i := 0; i < 1000; i++ { // settle the backing array
		q.Push(q.Pop())
	}
	if allocs := testing.AllocsPerRun(100, func() { q.Push(q.Pop()) }); allocs != 0 {
		t.Fatalf("steady FIFO allocates %.1f per push/pop", allocs)
	}
	if c := cap(q.buf); c > 64 {
		t.Fatalf("backing array grew to %d for a 16-entry backlog", c)
	}
}

func TestAtBeforeNowPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At before now should panic")
		}
	}()
	e.At(5, func() {})
}

func TestAtCalleeOrderAndArgument(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := CalleeFunc(func(at Time) { got = append(got, at) })
	// AtCallee events interleave with At events in (time, seq) order, and
	// each receives the argument bound at scheduling time.
	e.AtCallee(20, rec, 20)
	e.At(10, func() { got = append(got, 10) })
	e.AtCallee(10, rec, -10) // same timestamp: fires after, in schedule order
	e.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != -10 || got[2] != 20 {
		t.Fatalf("fired %v, want [10 -10 20]", got)
	}
	if e.Now() != 20 {
		t.Fatalf("now %d, want 20", e.Now())
	}
}

func TestAtCalleeBeforeNowPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("AtCallee before now should panic")
		}
	}()
	e.AtCallee(5, CalleeFunc(func(Time) {}), 5)
}

// TestEngineSteadyStateAllocFree pins the tentpole property of the event
// queue: scheduling and firing events is allocation-free per event. A
// container/heap-based queue fails this immediately (every Push boxes the
// event into an interface). Two regimes are pinned separately:
//
//   - Same-cycle dispatch (events at the current time) joins the live
//     batch without touching the wheel and must allocate exactly nothing.
//   - Wheel traffic allocates only when a bucket grows past every
//     occupancy it has ever seen. Buckets are reused as time wraps their
//     level (64 cycles at level 0, 4096 at level 1), so after a warmup
//     pass the only residual is first-touch growth of a level-2+ bucket
//     when the cursor enters a 4096-cycle window the engine has never
//     visited — a handful of allocations per 4096 cycles, not per event.
//     A 256-event run must therefore average well under one allocation.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	fn := CalleeFunc(func(Time) {})
	churn := func() {
		base := e.Now()
		for i := 0; i < 256; i++ {
			e.AtCallee(base+Time(i%16), fn, 0)
		}
		e.Run()
	}
	// Warm up past a full level-1 wrap (4096 cycles) so every level-0 and
	// level-1 bucket has grown to the pattern's peak occupancy.
	for e.Now() < 3*4096 {
		churn()
	}
	if allocs := testing.AllocsPerRun(100, churn); allocs >= 1 {
		t.Fatalf("steady-state wheel scheduling allocated %.2f times per 256-event run, want < 1", allocs)
	}
	samecycle := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			e.AtCallee(e.Now(), fn, 0)
		}
		e.Run()
	})
	if samecycle > 0 {
		t.Fatalf("same-cycle dispatch allocated %.1f times per run, want 0", samecycle)
	}
}

// TestEngineHeapOrderTorture pushes interleaved batches with colliding
// timestamps and checks the pop order is exactly (time, seq): the
// hand-rolled heap must order identically to the container/heap it
// replaced, or simulations would diverge.
func TestEngineHeapOrderTorture(t *testing.T) {
	e := NewEngine()
	type stamp struct {
		at  Time
		seq int
	}
	var fired []stamp
	n := 0
	var add func(at Time)
	add = func(at Time) {
		seq := n
		n++
		e.At(at, func() { fired = append(fired, stamp{at: at, seq: seq}) })
	}
	// 97 and 31 are coprime: timestamps collide across batches in a
	// pattern that exercises both sift directions.
	for i := 0; i < 500; i++ {
		add(Time(i * 97 % 31))
	}
	e.Run()
	if len(fired) != 500 {
		t.Fatalf("fired %d events, want 500", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("event %d (at=%d seq=%d) fired before event %d (at=%d seq=%d)",
				i-1, a.at, a.seq, i, b.at, b.seq)
		}
	}
}

// TestDaemonEventsDontKeepSimulationAlive checks the AtDaemon contract: a
// self-rescheduling daemon (the metrics sampler's shape) must not extend a
// run past its last real event, and Run must terminate even though the
// daemon always has a future event pending.
func TestDaemonEventsDontKeepSimulationAlive(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if e.PendingWork() > 0 {
			e.AtDaemon(e.Now()+10, tick)
		}
	}
	done := Time(-1)
	e.At(35, func() { done = e.Now() })
	e.AtDaemon(10, tick)
	e.Run()
	if done != 35 {
		t.Fatalf("real event fired at %d, want 35", done)
	}
	if e.Now() != 35 {
		t.Fatalf("Now() = %d after Run, want 35 (daemons must not advance past last real event)", e.Now())
	}
	want := []Time{10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("daemon ticked at %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("daemon ticked at %v, want %v", ticks, want)
		}
	}
	if e.PendingWork() != 0 {
		t.Fatalf("PendingWork() = %d after Run, want 0", e.PendingWork())
	}
}

// TestRunUntilSkipsTrailingDaemons checks RunUntil stops firing once only
// daemons remain but still advances the clock to the requested time.
func TestRunUntilSkipsTrailingDaemons(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(5, func() { fired++ })
	e.AtDaemon(8, func() { fired++ })
	more := e.RunUntil(20)
	if more {
		t.Fatal("RunUntil reported pending work with only daemons left")
	}
	if fired != 1 {
		t.Fatalf("fired %d events, want 1 (the daemon at 8 must not fire)", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", e.Now())
	}
}

// TestDaemonTicksNotCounted: Fired counts the model's events only, so a
// run observed by a periodic daemon reports the same event count as the
// unobserved run.
func TestDaemonTicksNotCounted(t *testing.T) {
	run := func(observe bool) (fired int64, ticks int) {
		e := NewEngine()
		for _, at := range []Time{3, 17, 40, 41, 95} {
			e.At(at, func() {})
		}
		if observe {
			e.EveryDaemon(10, func() { ticks++ })
		}
		e.Run()
		return e.Fired(), ticks
	}
	plain, _ := run(false)
	observed, ticks := run(true)
	if ticks == 0 {
		t.Fatal("the daemon never ticked; the comparison proves nothing")
	}
	if plain != 5 || observed != plain {
		t.Fatalf("Fired() = %d unobserved, %d with %d daemon ticks; want 5 both", plain, observed, ticks)
	}
}
