// Package task is a CellSs-style offload runtime on top of the simulator:
// the programming model the paper's related work introduces (Bellens et
// al.) and whose runtime the paper says its bandwidth guidelines should
// optimize. Tasks name their main-memory operands; the runtime infers
// dependencies from operand overlap, schedules ready tasks onto SPE
// workers, stages inputs into local stores by DMA (with the paper's
// delayed-synchronization discipline), runs the compute, and writes
// outputs back.
//
// Two data-movement policies are provided, directly encoding the paper's
// findings:
//
//   - ThroughMemory: every operand moves through main memory — simple,
//     but bounded by the ~10 GB/s a single SPE gets from memory.
//   - Forwarding: when a task consumes exactly what an earlier task
//     produced and that output is still resident in the producer's local
//     store, the consumer fetches it LS-to-LS (up to 33.6 GB/s per pair,
//     §4.2.3) or reuses it in place when scheduled on the same worker.
package task

import (
	"fmt"

	"cellbe/internal/cell"
	"cellbe/internal/mfc"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
)

// Buffer is a task operand in main memory.
type Buffer struct {
	EA   int64
	Size int
}

func (b Buffer) overlaps(o Buffer) bool {
	return b.EA < o.EA+int64(o.Size) && o.EA < b.EA+int64(b.Size)
}

// Task is one unit of offloaded work. Inputs are staged into the worker's
// local store, Compute runs on the staged bytes, and Outputs are written
// back. ComputeCycles is the simulated cost of Compute (e.g. bytes/16 for
// a SIMD-rate pass).
type Task struct {
	Name          string
	Inputs        []Buffer
	Outputs       []Buffer
	ComputeCycles sim.Time
	// Compute transforms staged input bytes into output bytes. Slices
	// alias local store staging areas; indexes follow Inputs/Outputs.
	// May be nil for pure traffic studies.
	Compute func(in [][]byte, out [][]byte)

	id      int
	deps    []*Task
	ndeps   int // unresolved dependency count
	dones   []*Task
	state   taskState
	worker  int // where it ran
	started sim.Time
	ended   sim.Time
}

type taskState int

const (
	statePending taskState = iota
	stateReady
	stateRunning
	stateDone
)

// Policy selects the data-movement strategy.
type Policy int

// Policies.
const (
	// ThroughMemory stages every operand via main memory.
	ThroughMemory Policy = iota
	// Forwarding fetches inputs LS-to-LS from the producing worker when
	// the produced data is still resident, and skips staging entirely
	// when producer and consumer share a worker.
	Forwarding
)

func (p Policy) String() string {
	if p == Forwarding {
		return "forwarding"
	}
	return "through-memory"
}

// Stats summarizes a runtime execution.
type Stats struct {
	Tasks       int
	Cycles      sim.Time
	BytesStaged int64 // DMA bytes moved for operands
	ForwardedLS int   // inputs satisfied LS-to-LS
	ReusedInLS  int   // inputs reused in place (same worker)
	PerWorker   []int // tasks per worker
}

// Runtime schedules tasks over a set of SPE workers.
type Runtime struct {
	sys     *cell.System
	workers []int
	policy  Policy
	tasks   []*Task

	// residency: which task's outputs each worker's LS currently holds,
	// and at which staging offsets.
	resident []map[*Task][]int
}

// lsIn / lsOut are the staging areas inside each worker's local store:
// inputs at [0, 96K), outputs at [96K, 192K). The region above 192K is
// free for the atomic scratch and program state.
const (
	lsIn     = 0
	lsOut    = 96 << 10
	lsRegion = 96 << 10
)

// New builds a runtime over the given logical SPE workers.
func New(sys *cell.System, workers []int, policy Policy) *Runtime {
	if len(workers) == 0 {
		panic("task: need at least one worker")
	}
	seen := map[int]bool{}
	for _, w := range workers {
		if w < 0 || w >= len(sys.SPEs) || seen[w] {
			panic(fmt.Sprintf("task: bad worker set %v", workers))
		}
		seen[w] = true
	}
	r := &Runtime{sys: sys, workers: workers, policy: policy}
	r.resident = make([]map[*Task][]int, len(workers))
	for i := range r.resident {
		r.resident[i] = make(map[*Task][]int)
	}
	return r
}

// Submit adds a task, inferring dependencies from operand overlap with
// previously submitted tasks (RAW, WAR and WAW hazards all order).
func (r *Runtime) Submit(t *Task) *Task {
	var in, out int
	for _, b := range t.Inputs {
		if b.Size <= 0 {
			panic("task: empty input buffer")
		}
		in += b.Size
	}
	for _, b := range t.Outputs {
		if b.Size <= 0 {
			panic("task: empty output buffer")
		}
		out += b.Size
	}
	if in > lsRegion || out > lsRegion {
		panic(fmt.Sprintf("task %q: operands exceed the %d KB staging areas", t.Name, lsRegion>>10))
	}
	t.id = len(r.tasks)
	for _, prev := range r.tasks {
		if r.hazard(prev, t) {
			t.deps = append(t.deps, prev)
			t.ndeps++
			prev.dones = append(prev.dones, t)
		}
	}
	r.tasks = append(r.tasks, t)
	return t
}

// hazard reports whether t must wait for prev.
func (r *Runtime) hazard(prev, t *Task) bool {
	for _, w := range prev.Outputs {
		for _, in := range t.Inputs {
			if w.overlaps(in) {
				return true // RAW
			}
		}
		for _, o := range t.Outputs {
			if w.overlaps(o) {
				return true // WAW
			}
		}
	}
	for _, pin := range prev.Inputs {
		for _, o := range t.Outputs {
			if pin.overlaps(o) {
				return true // WAR
			}
		}
	}
	return false
}

// Run executes all submitted tasks and returns statistics: Start, then
// drive the system to completion under the watchdog. A dependency cycle
// leaves the dispatcher (and idle workers) blocked on mailboxes forever,
// which surfaces as a panic wrapping the *sim.DeadlockError that names
// the stuck processes.
func (r *Runtime) Run() Stats {
	st := r.Start()
	if err := r.sys.RunChecked(0); err != nil {
		panic(fmt.Errorf("task: runtime wedged (dependency cycle?): %w", err))
	}
	return *st
}

// Start spawns the workers and the dispatcher without running the
// system. The returned statistics are final once the system has run to
// completion; callers that own the run (the experiment harness) check it
// with System.RunChecked, which reports a wedged runtime as a
// *sim.DeadlockError.
func (r *Runtime) Start() *Stats {
	st := &Stats{Tasks: len(r.tasks), PerWorker: make([]int, len(r.workers))}
	if len(r.tasks) == 0 {
		return st
	}

	ready := make([]*Task, 0, len(r.tasks))
	for _, t := range r.tasks {
		if t.ndeps == 0 {
			t.state = stateReady
			ready = append(ready, t)
		}
	}

	// Completion channel: workers post their worker index.
	completions := spe.NewMailbox(r.sys.Eng, len(r.workers))
	// Per-worker dispatch mailboxes carry task ids (or stop).
	const stop = ^uint32(0)
	dispatch := make([]*spe.Mailbox, len(r.workers))
	idle := make([]bool, len(r.workers))
	running := make([]*Task, len(r.workers))
	for i := range dispatch {
		dispatch[i] = spe.NewMailbox(r.sys.Eng, 1)
		idle[i] = true
	}

	done := 0
	for wi, w := range r.workers {
		wi, w := wi, w
		r.sys.SPEs[w].Run(fmt.Sprintf("worker%d", wi), func(ctx *spe.Context) {
			for {
				msg := dispatch[wi].Read(ctx.Process)
				if msg == stop {
					return
				}
				t := r.tasks[msg]
				r.execute(ctx, wi, t, st)
				completions.Write(ctx.Process, uint32(wi))
			}
		})
	}

	// Dispatcher: a PPE-side control loop (control messages only; its
	// memory traffic is negligible next to the staging DMA).
	sim.Spawn(r.sys.Eng, "dispatcher", func(p *sim.Process) {
		assign := func() {
			for wi := range r.workers {
				if !idle[wi] || len(ready) == 0 {
					continue
				}
				t := r.pick(&ready, wi)
				idle[wi] = false
				running[wi] = t
				t.state = stateRunning
				t.worker = wi
				dispatch[wi].Write(p, uint32(t.id))
			}
		}
		assign()
		for done < len(r.tasks) {
			wi := int(completions.Read(p))
			t := running[wi]
			t.state = stateDone
			t.ended = p.Now()
			st.PerWorker[wi]++
			done++
			idle[wi] = true
			for _, succ := range t.dones {
				succ.ndeps--
				if succ.ndeps == 0 {
					succ.state = stateReady
					ready = append(ready, succ)
				}
			}
			assign()
		}
		for wi := range r.workers {
			dispatch[wi].Write(p, stop)
		}
		st.Cycles = p.Now()
	})

	return st
}

// pick selects the next ready task for worker wi: under Forwarding, prefer
// a task whose inputs are resident on wi (zero-copy), then any task with a
// resident producer somewhere; otherwise FIFO.
func (r *Runtime) pick(ready *[]*Task, wi int) *Task {
	list := *ready
	best := 0
	if r.policy == Forwarding {
		bestScore := -1
		for i, t := range list {
			score := 0
			for _, in := range t.Inputs {
				if _, ok := r.findResident(wi, in); ok {
					score += 2 // same worker: no transfer at all
				} else if _, _, ok := r.findResidentAnywhere(in); ok {
					score++ // LS-to-LS transfer
				}
			}
			if score > bestScore {
				bestScore, best = score, i
			}
		}
	}
	t := list[best]
	*ready = append(list[:best], list[best+1:]...)
	return t
}

// findResident returns the staging offset of buffer b in worker wi's LS.
func (r *Runtime) findResident(wi int, b Buffer) (off int, ok bool) {
	for prod, offs := range r.resident[wi] {
		for k, out := range prod.Outputs {
			if out == b {
				return offs[k], true
			}
		}
	}
	return 0, false
}

// findResidentAnywhere locates buffer b in any worker's LS.
func (r *Runtime) findResidentAnywhere(b Buffer) (wi, off int, ok bool) {
	for w := range r.resident {
		if o, hit := r.findResident(w, b); hit {
			return w, o, true
		}
	}
	return 0, 0, false
}

// execute stages, computes and writes back one task on worker wi.
func (r *Runtime) execute(ctx *spe.Context, wi int, t *Task, st *Stats) {
	t.started = ctx.Decrementer()
	ls := ctx.SPE().LS()

	// Resolve input sources BEFORE claiming the staging areas: this
	// worker's own resident outputs are still valid to copy from.
	srcs := make([]int64, len(t.Inputs))
	for i, b := range t.Inputs {
		srcs[i] = b.EA
		if r.policy == Forwarding {
			if lsOff, ok := r.findResident(wi, b); ok {
				// Same worker: a local LS-to-LS copy, no ring traffic.
				srcs[i] = r.sys.LSEA(r.workers[wi], lsOff)
				st.ReusedInLS++
			} else if w, lsOff, ok := r.findResidentAnywhere(b); ok {
				srcs[i] = r.sys.LSEA(r.workers[w], lsOff)
				st.ForwardedLS++
			}
		}
	}

	// Claiming the staging areas invalidates residency on this worker.
	r.resident[wi] = make(map[*Task][]int)

	// Stage inputs with delayed synchronization: issue every GET, wait
	// once. Inputs pack tightly into the input area.
	in := make([][]byte, len(t.Inputs))
	off := lsIn
	for i, b := range t.Inputs {
		stage(ctx, off, srcs[i], b.Size, i%mfc.NumTags)
		st.BytesStaged += int64(b.Size)
		in[i] = ls[off : off+b.Size]
		off += pad16(b.Size)
	}
	ctx.WaitTagMask(^uint32(0))

	// Compute.
	if t.Compute != nil || t.ComputeCycles > 0 {
		out := make([][]byte, len(t.Outputs))
		ooff := lsOut
		for i, b := range t.Outputs {
			out[i] = ls[ooff : ooff+b.Size]
			ooff += pad16(b.Size)
		}
		if t.Compute != nil {
			t.Compute(in, out)
		}
		ctx.Wait(t.ComputeCycles)
	}

	// Write back outputs, again with one wait at the end.
	ooff := lsOut
	offs := make([]int, len(t.Outputs))
	for i, b := range t.Outputs {
		unstage(ctx, ooff, b.EA, b.Size, i%mfc.NumTags)
		st.BytesStaged += int64(b.Size)
		offs[i] = ooff
		ooff += pad16(b.Size)
	}
	ctx.WaitTagMask(^uint32(0))

	// The outputs are now resident in this worker's LS until the next
	// task claims the staging areas.
	r.resident[wi][t] = offs
}

// stage GETs size bytes from src (memory or a peer LS) into lsOff in
// maximum-size DMA chunks.
func stage(ctx *spe.Context, lsOff int, src int64, size, tag int) {
	for done := 0; done < size; {
		n := size - done
		if n > mfc.MaxTransfer {
			n = mfc.MaxTransfer
		}
		ctx.Get(lsOff+done, src+int64(done), n, tag)
		done += n
	}
}

// unstage PUTs size bytes from lsOff to a memory EA in chunks.
func unstage(ctx *spe.Context, lsOff int, dst int64, size, tag int) {
	for done := 0; done < size; {
		n := size - done
		if n > mfc.MaxTransfer {
			n = mfc.MaxTransfer
		}
		ctx.Put(lsOff+done, dst+int64(done), n, tag)
		done += n
	}
}

func pad16(n int) int { return (n + 15) &^ 15 }
