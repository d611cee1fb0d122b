// Package cellbe is a cycle-approximate simulator of the Cell Broadband
// Engine's communication architecture, built to reproduce "Performance
// Analysis of Cell Broadband Engine for High Memory Bandwidth
// Applications" (Jiménez-González, Martorell, Ramírez — ISPASS 2007).
//
// The model covers the parts of the machine that shape memory bandwidth:
// the Element Interconnect Bus (four 16-byte rings at half the CPU clock),
// the eight SPEs with their local stores and MFC DMA engines (element and
// list commands, tag groups, fences), the MIC-attached XDR memory plus the
// second blade processor's bank behind the IOIF, and the PPE with its
// write-through L1, L2, SMT threads, gathering store queue and stream
// prefetcher. DMA moves real bytes, so the simulator doubles as a
// functional library for writing Cell-style double-buffered and streaming
// programs in Go.
//
// This package re-exports the public surface:
//
//	sys := cellbe.NewSystem(cellbe.DefaultConfig())
//	buf := sys.Alloc(1<<20, 128)
//	sys.SPEs[0].Run("kernel", func(ctx *cellbe.SPUContext) {
//	    ctx.Get(0, buf, 16384, 0)
//	    ctx.WaitTag(0)
//	})
//	sys.Run()
//
// The experiment suite that reproduces every figure of the paper lives
// behind RunExperiment / Experiments; the cellbench command is a thin CLI
// over it.
package cellbe

import (
	"io"

	"cellbe/internal/cell"
	"cellbe/internal/core"
	"cellbe/internal/eib"
	"cellbe/internal/mfc"
	"cellbe/internal/ppe"
	"cellbe/internal/report"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
	"cellbe/internal/task"
)

// Re-exported machine model types.
type (
	// System is a fully wired Cell BE machine.
	System = cell.System
	// Config configures the machine (clock, EIB, memory, MFC, PPE, SPE
	// layout).
	Config = cell.Config
	// SPE is one Synergistic Processor Element.
	SPE = spe.SPE
	// SPUContext is the coroutine context handed to SPU programs.
	SPUContext = spe.Context
	// Mailbox is a bounded 32-bit message queue.
	Mailbox = spe.Mailbox
	// PPEPass is one load/store/copy sweep of a PPU thread (see PPE.Run).
	PPEPass = ppe.Pass
	// DMAList is a list-DMA element (effective address + size).
	DMAList = mfc.ListElem
	// RampID is a physical position on the EIB ring.
	RampID = eib.RampID
	// Time is simulated time in CPU cycles.
	Time = sim.Time
)

// Re-exported experiment suite types.
type (
	// Params controls experiment volume, repetition and layout seeds.
	Params = core.Params
	// Result is a reproduced figure (curves of bandwidth summaries).
	Result = core.Result
	// Experiment is a named, runnable figure reproduction.
	Experiment = core.Experiment
	// Pipeline is a multi-SPE streaming pipeline (the §1/§5 workload).
	Pipeline = core.Pipeline
)

// Re-exported task-runtime types (the CellSs-style offload runtime).
type (
	// Task is one unit of offloaded work with main-memory operands.
	Task = task.Task
	// TaskBuffer names a task operand (effective address + size).
	TaskBuffer = task.Buffer
	// TaskRuntime schedules tasks over SPE workers with inferred
	// dependencies.
	TaskRuntime = task.Runtime
	// TaskPolicy selects the runtime's data-movement strategy.
	TaskPolicy = task.Policy
	// TaskStats summarizes a runtime execution.
	TaskStats = task.Stats
)

// Task runtime data-movement policies.
const (
	// ThroughMemory stages every operand via main memory.
	ThroughMemory = task.ThroughMemory
	// Forwarding moves producer-consumer intermediates LS-to-LS.
	Forwarding = task.Forwarding
)

// PPU stream pass kinds (PPEPass.Op).
const PPELoad, PPEStore, PPECopy = ppe.Load, ppe.Store, ppe.Copy

// NewTaskRuntime builds a task runtime over the given logical SPE workers.
func NewTaskRuntime(sys *System, workers []int, policy TaskPolicy) *TaskRuntime {
	return task.New(sys, workers, policy)
}

// NumSPEs is the number of SPEs on a CBE chip.
const NumSPEs = cell.NumSPEs

// LocalStoreBytes is the size of each SPE's local store.
const LocalStoreBytes = spe.LocalStoreBytes

// MaxDMA is the architectural maximum DMA element size (16 KB).
const MaxDMA = mfc.MaxTransfer

// NewSystem builds a machine from cfg.
func NewSystem(cfg Config) *System { return cell.New(cfg) }

// NewMailbox creates a bounded 32-bit message queue on the system's
// engine, for custom handshakes between kernels (beyond each SPE's
// built-in inbox/outbox).
func NewMailbox(eng *sim.Engine, capacity int) *Mailbox {
	return spe.NewMailbox(eng, capacity)
}

// DefaultConfig returns the calibrated configuration of the paper's blade:
// one 2.1 GHz Cell processor with both memory banks visible.
func DefaultConfig() Config { return cell.DefaultConfig() }

// RandomLayout samples a logical-to-physical SPE mapping from seed
// (seed 0 is the identity), standing in for the placement opacity of
// libspe 1.1.
func RandomLayout(seed int64) []int { return cell.RandomLayout(seed) }

// DefaultParams returns quick experiment parameters (2 MB per SPE, 10
// layout samples); PaperParams returns the full 32 MB per-SPE volume.
func DefaultParams() Params { return core.DefaultParams() }

// PaperParams returns the original paper's experiment volume.
func PaperParams() Params { return core.PaperParams() }

// Experiments lists every reproducible figure.
func Experiments() []Experiment { return core.Experiments() }

// RunExperiment runs the named experiment (see Experiments) with params.
func RunExperiment(name string, params Params) (*Result, error) {
	e, err := core.Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.Run(params)
}

// NewPipeline builds a streaming pipeline over sys.SPEs[first:first+count]
// moving volume bytes from src to dst in main memory.
func NewPipeline(sys *System, first, count int, src, dst, volume int64) *Pipeline {
	return core.NewPipeline(sys, first, count, src, dst, volume)
}

// WriteTable renders a result as an aligned text table; full adds
// min/max/median columns.
func WriteTable(w io.Writer, r *Result, full bool) error { return report.Table(w, r, full) }

// WriteCSV renders a result as CSV.
func WriteCSV(w io.Writer, r *Result) error { return report.CSV(w, r) }

// WriteChart renders a result as an ASCII chart of the given width.
func WriteChart(w io.Writer, r *Result, width int) error { return report.Chart(w, r, width) }
