package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// TestWheelEventAtForever schedules the latest representable event and
// checks it cascades down through every wheel level and fires last. The
// wheel spans the full 63-bit Time range, so Forever must be a legal
// timestamp, not a sentinel the scheduler chokes on.
func TestWheelEventAtForever(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(Forever, func() { got = append(got, e.Now()) })
	e.At(3, func() { got = append(got, e.Now()) })
	e.Run()
	if len(got) != 2 || got[0] != 3 || got[1] != Forever {
		t.Fatalf("fired at %v, want [3 %d]", got, Forever)
	}
	if e.Now() != Forever {
		t.Fatalf("Now() = %d, want Forever", e.Now())
	}
}

// TestWheelScheduleAtNowDuringStep checks the same-cycle dispatch path: an
// event that schedules more work at the current instant (via At(Now) and
// via Post) must see it run in the same cycle, after itself, in scheduling
// order, and strictly before any later-cycle event.
func TestWheelScheduleAtNowDuringStep(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, func() {
		got = append(got, "a")
		e.At(10, func() { got = append(got, "b") })
		e.PostCallee(thunk(func() {
			got = append(got, "c")
			e.At(e.Now(), func() { got = append(got, "d") })
		}), 0)
	})
	e.At(11, func() { got = append(got, "e") })
	e.Run()
	want := "abcde"
	if s := joinStrings(got); s != want {
		t.Fatalf("fired %q, want %q", s, want)
	}
}

func joinStrings(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s
	}
	return out
}

// TestWheelRunUntilInsideBucketBoundary stops a run at a limit that lands
// inside a level-1 wheel window (4096 is the first level-0 wrap): events
// before the limit fire, the one just past it must stay pending even
// though it lives in the same level-1 bucket the cursor stopped in.
func TestWheelRunUntilInsideBucketBoundary(t *testing.T) {
	e := NewEngine()
	var got []Time
	note := func() { got = append(got, e.Now()) }
	e.At(4095, note)
	e.At(4096, note)
	e.At(4097, note)
	if more := e.RunUntil(4096); !more {
		t.Fatal("RunUntil(4096) reported no pending work; the event at 4097 is pending")
	}
	if len(got) != 2 || got[0] != 4095 || got[1] != 4096 {
		t.Fatalf("RunUntil(4096) fired at %v, want [4095 4096]", got)
	}
	if e.Now() != 4096 {
		t.Fatalf("Now() = %d, want 4096", e.Now())
	}
	// The event a cycle past the limit still fires, and new work scheduled
	// at the paused instant slots in ahead of it.
	e.At(4096, note)
	e.Run()
	if len(got) != 4 || got[2] != 4096 || got[3] != 4097 {
		t.Fatalf("after resume fired at %v, want [... 4096 4097]", got)
	}
}

// TestWheelDaemonsInterleaveWithCascades runs a self-rescheduling daemon
// across several level-1 window boundaries alongside real events, checking
// daemons cascade like any event, interleave at the right instants, and
// still don't extend the run past the last real event.
func TestWheelDaemonsInterleaveWithCascades(t *testing.T) {
	e := NewEngine()
	var got []Time
	var tick func()
	tick = func() {
		got = append(got, e.Now())
		e.AtDaemon(e.Now()+1000, tick)
	}
	e.AtDaemon(500, tick)
	fired := Time(-1)
	e.At(9000, func() { fired = e.Now() })
	e.Run()
	if fired != 9000 {
		t.Fatalf("real event fired at %d, want 9000", fired)
	}
	want := []Time{500, 1500, 2500, 3500, 4500, 5500, 6500, 7500, 8500}
	if len(got) != len(want) {
		t.Fatalf("daemon ticks %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("daemon ticks %v, want %v", got, want)
		}
	}
	if e.Now() != 9000 {
		t.Fatalf("Now() = %d, want 9000 (daemon at 9500 must not advance the clock)", e.Now())
	}
}

// TestProcessRegistryPruned is the regression test for the process-registry
// leak: a long simulation spawning short-lived processes must not
// accumulate an entry per process forever. The registry may lag (reaping
// is amortized) but must stay bounded by the live process count, not the
// total ever spawned.
func TestProcessRegistryPruned(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10000; i++ {
		Spawn(e, "ephemeral", func(p *Process) { p.Wait(1) })
		e.Run()
	}
	if n := len(e.procs); n > 64 {
		t.Fatalf("process registry holds %d entries after 10000 completed processes, want <= 64", n)
	}
	if diag := e.StuckProcesses(); len(diag) != 0 {
		t.Fatalf("StuckProcesses() = %v after all processes completed, want none", diag)
	}
}

// refHeap is a reference (time, seq) min-heap — the scheduler the timing
// wheel replaced — used to differentially test ordering.
type refHeap []refEvent

type refEvent struct {
	at  Time
	seq int
}

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestWheelMatchesReferenceHeap drives the wheel and a reference min-heap
// with identical randomized workloads — bursts of duplicate timestamps,
// near/far horizons, work scheduled from inside events — and requires the
// exact same dispatch order. This is the ordering-identity contract that
// keeps determinism goldens valid across the scheduler swap.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refHeap{}
		var got []refEvent
		seq := 0
		schedule := func(d Time) {
			at := e.Now() + d
			ev := refEvent{at: at, seq: seq}
			seq++
			heap.Push(ref, ev)
			e.At(at, func() {
				got = append(got, refEvent{at: e.Now(), seq: ev.seq})
				// A third of events spawn follow-up work at mixed horizons.
				if ev.seq%3 == 0 {
					heap.Push(ref, refEvent{at: e.Now(), seq: seq})
					e.At(e.Now(), func() { got = append(got, refEvent{at: e.Now(), seq: -1}) })
					seq++
				}
			})
		}
		for i := 0; i < 400; i++ {
			switch rng.Intn(4) {
			case 0:
				schedule(0)
			case 1:
				schedule(Time(rng.Intn(8)))
			case 2:
				schedule(Time(rng.Intn(5000)))
			default:
				schedule(Time(rng.Intn(1 << 20)))
			}
		}
		e.Run()
		// Drain the reference heap into the expected (at, seq) order. The
		// follow-up events carry seq recorded as -1 on the wheel side, so
		// compare timestamps for those and exact seq for the rest.
		var want []refEvent
		for ref.Len() > 0 {
			want = append(want, heap.Pop(ref).(refEvent))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].at != want[i].at {
				t.Fatalf("seed %d: event %d fired at %d, reference at %d", seed, i, got[i].at, want[i].at)
			}
			if got[i].seq >= 0 && got[i].seq != want[i].seq {
				t.Fatalf("seed %d: event %d is seq %d, reference seq %d", seed, i, got[i].seq, want[i].seq)
			}
		}
	}
}
