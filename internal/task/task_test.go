package task

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/sim"
)

func newSys() *cell.System { return cell.New(cell.DefaultConfig()) }

// transform returns a Compute that copies inputs to outputs adding delta.
func transform(delta byte) func(in, out [][]byte) {
	return func(in, out [][]byte) {
		for i := range out {
			src := in[i%len(in)]
			for j := range out[i] {
				out[i][j] = src[j%len(src)] + delta
			}
		}
	}
}

func TestSingleTaskMovesData(t *testing.T) {
	sys := newSys()
	in := sys.Alloc(4096, 128)
	out := sys.Alloc(4096, 128)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 5)
	}
	sys.Mem.RAM().Write(in, payload)

	r := New(sys, []int{0}, ThroughMemory)
	r.Submit(&Task{
		Name:          "t",
		Inputs:        []Buffer{{EA: in, Size: 4096}},
		Outputs:       []Buffer{{EA: out, Size: 4096}},
		ComputeCycles: 256,
		Compute:       transform(1),
	})
	st := r.Run()
	if st.Tasks != 1 || st.PerWorker[0] != 1 {
		t.Fatalf("stats %+v", st)
	}
	got := make([]byte, 4096)
	sys.Mem.RAM().Read(out, got)
	for i := range got {
		if got[i] != payload[i]+1 {
			t.Fatalf("byte %d: %d, want %d", i, got[i], payload[i]+1)
		}
	}
}

func TestDependencyInference(t *testing.T) {
	sys := newSys()
	a := sys.Alloc(1024, 128)
	b := sys.Alloc(1024, 128)
	c := sys.Alloc(1024, 128)
	r := New(sys, []int{0, 1}, ThroughMemory)
	t1 := r.Submit(&Task{Name: "w1", Outputs: []Buffer{{EA: a, Size: 1024}}})
	t2 := r.Submit(&Task{Name: "r1w2", Inputs: []Buffer{{EA: a, Size: 1024}}, Outputs: []Buffer{{EA: b, Size: 1024}}})
	t3 := r.Submit(&Task{Name: "indep", Outputs: []Buffer{{EA: c, Size: 1024}}})
	t4 := r.Submit(&Task{Name: "waw", Outputs: []Buffer{{EA: a, Size: 1024}}})
	if t2.ndeps != 1 {
		t.Fatalf("RAW not inferred: t2 deps %d", t2.ndeps)
	}
	if t3.ndeps != 0 {
		t.Fatal("independent task must have no deps")
	}
	// t4 writes a: WAW with t1 and WAR with t2.
	if t4.ndeps != 2 {
		t.Fatalf("WAW/WAR not inferred: t4 deps %d", t4.ndeps)
	}
	_ = t1
	r.Run()
}

func TestChainOrdering(t *testing.T) {
	// t0 writes 10 to buf, t1 reads buf and writes buf2+1, t2 reads buf2
	// and writes buf3+1: final must be 12 — only if ordering held.
	sys := newSys()
	bufs := []int64{sys.Alloc(1024, 128), sys.Alloc(1024, 128), sys.Alloc(1024, 128), sys.Alloc(1024, 128)}
	seed := make([]byte, 1024)
	for i := range seed {
		seed[i] = 10
	}
	sys.Mem.RAM().Write(bufs[0], seed)

	r := New(sys, []int{0, 1, 2, 3}, ThroughMemory)
	for i := 0; i < 3; i++ {
		r.Submit(&Task{
			Name:    "stage",
			Inputs:  []Buffer{{EA: bufs[i], Size: 1024}},
			Outputs: []Buffer{{EA: bufs[i+1], Size: 1024}},
			Compute: transform(1),
		})
	}
	r.Run()
	got := make([]byte, 1024)
	sys.Mem.RAM().Read(bufs[3], got)
	for i := range got {
		if got[i] != 13 {
			t.Fatalf("chain result %d, want 13 (ordering broken)", got[i])
		}
	}
}

func TestParallelFanOut(t *testing.T) {
	// One producer, 6 independent consumers: consumers must spread over
	// the workers and all see the producer's data.
	sys := newSys()
	src := sys.Alloc(8192, 128)
	r := New(sys, []int{0, 1, 2, 3}, ThroughMemory)
	r.Submit(&Task{
		Name:    "produce",
		Outputs: []Buffer{{EA: src, Size: 8192}},
		Compute: func(in, out [][]byte) {
			for j := range out[0] {
				out[0][j] = 77
			}
		},
	})
	outs := make([]int64, 6)
	for i := range outs {
		outs[i] = sys.Alloc(8192, 128)
		r.Submit(&Task{
			Name:    "consume",
			Inputs:  []Buffer{{EA: src, Size: 8192}},
			Outputs: []Buffer{{EA: outs[i], Size: 8192}},
			Compute: transform(1),
		})
	}
	st := r.Run()
	busy := 0
	for _, n := range st.PerWorker {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("fan-out used only %d workers: %v", busy, st.PerWorker)
	}
	want := bytes.Repeat([]byte{78}, 8192)
	got := make([]byte, 8192)
	for i := range outs {
		sys.Mem.RAM().Read(outs[i], got)
		if !bytes.Equal(got, want) {
			t.Fatalf("consumer %d saw wrong data", i)
		}
	}
}

func TestForwardingBeatsMemoryOnChains(t *testing.T) {
	// A long chain of producer->consumer tasks over big operands: the
	// Forwarding policy moves intermediates LS-to-LS (or reuses them in
	// place) and must finish faster — the paper's SPE-to-SPE bandwidth
	// advantage expressed at the runtime level.
	build := func(policy Policy) (Stats, *cell.System) {
		sys := newSys()
		const n = 24
		const size = 64 << 10
		bufs := make([]int64, n+1)
		for i := range bufs {
			bufs[i] = sys.Alloc(size, 128)
		}
		r := New(sys, []int{0, 1, 2, 3}, policy)
		for i := 0; i < n; i++ {
			r.Submit(&Task{
				Name:          "link",
				Inputs:        []Buffer{{EA: bufs[i], Size: size}},
				Outputs:       []Buffer{{EA: bufs[i+1], Size: size}},
				ComputeCycles: size / 16,
				Compute:       transform(1),
			})
		}
		return r.Run(), sys
	}
	memStats, _ := build(ThroughMemory)
	fwdStats, _ := build(Forwarding)
	if fwdStats.ForwardedLS+fwdStats.ReusedInLS == 0 {
		t.Fatal("forwarding policy never forwarded")
	}
	if fwdStats.Cycles >= memStats.Cycles {
		t.Fatalf("forwarding (%d cycles) must beat through-memory (%d cycles)",
			fwdStats.Cycles, memStats.Cycles)
	}
}

func TestForwardingCorrectness(t *testing.T) {
	sys := newSys()
	const size = 32 << 10
	a := sys.Alloc(size, 128)
	b := sys.Alloc(size, 128)
	c := sys.Alloc(size, 128)
	seed := bytes.Repeat([]byte{100}, size)
	sys.Mem.RAM().Write(a, seed)
	r := New(sys, []int{0, 1}, Forwarding)
	r.Submit(&Task{Inputs: []Buffer{{EA: a, Size: size}}, Outputs: []Buffer{{EA: b, Size: size}}, Compute: transform(1)})
	r.Submit(&Task{Inputs: []Buffer{{EA: b, Size: size}}, Outputs: []Buffer{{EA: c, Size: size}}, Compute: transform(1)})
	st := r.Run()
	got := make([]byte, size)
	sys.Mem.RAM().Read(c, got)
	for i := range got {
		if got[i] != 102 {
			t.Fatalf("forwarded chain produced %d, want 102", got[i])
		}
	}
	if st.ForwardedLS+st.ReusedInLS == 0 {
		t.Fatal("expected at least one forwarded input")
	}
}

func TestOversizeOperandPanics(t *testing.T) {
	sys := newSys()
	r := New(sys, []int{0}, ThroughMemory)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize operand should panic")
		}
	}()
	r.Submit(&Task{Inputs: []Buffer{{EA: 0, Size: 97 << 10}}})
}

func TestBadWorkerSetPanics(t *testing.T) {
	sys := newSys()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate worker should panic")
		}
	}()
	New(sys, []int{0, 0}, ThroughMemory)
}

func TestEmptyRuntime(t *testing.T) {
	sys := newSys()
	r := New(sys, []int{0}, ThroughMemory)
	st := r.Run()
	if st.Tasks != 0 || st.Cycles != 0 {
		t.Fatalf("empty run stats %+v", st)
	}
}

// TestRunWedgedPanics: a runtime that cannot finish — here, a cycle
// budget far below the chain's run time — panics with the watchdog's
// *sim.DeadlockError, naming the stuck processes.
func TestRunWedgedPanics(t *testing.T) {
	cfg := cell.DefaultConfig()
	cfg.MaxCycles = 100
	sys := cell.New(cfg)
	r := New(sys, []int{0}, ThroughMemory)
	a, b := sys.Alloc(4096, 128), sys.Alloc(4096, 128)
	r.Submit(&Task{Inputs: []Buffer{{EA: a, Size: 4096}}, Outputs: []Buffer{{EA: b, Size: 4096}}, ComputeCycles: 1000})
	defer func() {
		err, _ := recover().(error)
		var de *sim.DeadlockError
		if !errors.As(err, &de) || !strings.Contains(err.Error(), "dispatcher") {
			t.Fatalf("wedged Run panicked with %v, want a *sim.DeadlockError naming the dispatcher", err)
		}
	}()
	r.Run()
}
