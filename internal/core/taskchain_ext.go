package core

// Task-runtime extension: measures the CellSs-style runtime
// (internal/task) executing a chain of dependent tasks under its two
// data-movement policies. The gap between them is the paper's SPE-to-SPE
// versus SPE-to-memory bandwidth difference, surfaced at the programming-
// model level — exactly the optimization the paper says its results
// should drive in such runtimes.

import (
	"cellbe/internal/cell"
	"cellbe/internal/sim"
	"cellbe/internal/task"
)

// The workload: four independent chains of dependent tasks, so both the
// data-movement policy (within a chain) and worker parallelism (across
// chains) are visible.
const (
	taskChains      = 4
	taskChainStages = 12
)

// TaskChain runs the chains (64 KB operands, SIMD-rate compute) on 1, 2,
// 4 and 8 workers under both policies and reports operand throughput.
func TaskChain(p Params) (*Result, error) {
	res := &Result{
		Name:   "task-chain",
		Title:  "Extension: CellSs-style runtime, dependent task chain, by policy and workers",
		XLabel: "workers",
		YLabel: "GB/s of operands processed",
	}
	policies := []task.Policy{task.ThroughMemory, task.Forwarding}
	return p.kernelFigure(res, p.Runs, labelsOf(policies), []int{1, 2, 4, 8}, func(c, workers int, sys *cell.System) func() float64 {
		return taskChain(sys, policies[c], workers)
	})
}

// taskChain installs the chains on sys's task runtime with the given
// policy and worker count; its read-out is the operand throughput.
func taskChain(sys *cell.System, policy task.Policy, workers int) func() float64 {
	const size = 64 << 10
	ws := make([]int, workers)
	for i := range ws {
		ws[i] = i
	}
	rt := task.New(sys, ws, policy)
	for c := 0; c < taskChains; c++ {
		bufs := make([]int64, taskChainStages+1)
		for i := range bufs {
			bufs[i] = sys.Alloc(size, 128)
		}
		for i := 0; i < taskChainStages; i++ {
			rt.Submit(&task.Task{
				Name:          "link",
				Inputs:        []task.Buffer{{EA: bufs[i], Size: size}},
				Outputs:       []task.Buffer{{EA: bufs[i+1], Size: size}},
				ComputeCycles: sim.Time(size / 16),
			})
		}
	}
	st := rt.Start()
	// Each task touches 2*size operand bytes.
	return func() float64 { return sys.GBps(int64(st.Tasks)*2*size, st.Cycles) }
}
