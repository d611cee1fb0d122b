package core

import (
	"fmt"

	"cellbe/internal/cell"
	"cellbe/internal/ppe"
	"cellbe/internal/sim"
)

// CacheLevel selects the PPE experiment target: which memory level the
// traversed buffer fits in.
type CacheLevel int

// The three PPE bandwidth experiments of the paper.
const (
	LevelL1 CacheLevel = iota
	LevelL2
	LevelMem
)

func (l CacheLevel) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "Mem"
	}
	return "?"
}

// bufBytes returns the traversal buffer size for a level: half the L1 for
// the L1 experiment, half the L2 for the L2 experiment, and the
// main-memory volume otherwise.
func (p Params) bufBytes(level CacheLevel) int64 {
	cfg := p.config()
	switch level {
	case LevelL1:
		return int64(cfg.PPE.L1Bytes) / 2
	case LevelL2:
		return int64(cfg.PPE.L2Bytes) / 2
	default:
		return p.PPEBytes
	}
}

// PPEBandwidth reproduces Figures 3 (L1), 4 (L2) and 6 (main memory): the
// PPU runs a tight load/store/copy loop over a buffer sized for the chosen
// level, with 1 and 2 SMT threads, for element sizes 1 to 16 bytes. One
// warm-up lap precedes the timed laps, exactly as the paper does to avoid
// cold-start effects.
func PPEBandwidth(p Params, level CacheLevel) (*Result, error) {
	buf := p.bufBytes(level)
	res := &Result{
		Name:   "ppe-" + map[CacheLevel]string{LevelL1: "l1", LevelL2: "l2", LevelMem: "mem"}[level],
		Title:  fmt.Sprintf("PPE to %s: load/store/copy for 1 and 2 threads", level),
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	// PPE results do not depend on the SPE layout, but we keep the same
	// multi-run structure (results are deterministic, so Runs collapses
	// to 1 here to avoid wasted work). Curve c runs op ops[c/2] on 1+c%2
	// threads.
	ops := []ppe.Op{ppe.Load, ppe.Store, ppe.Copy}
	var labels []string
	for c := 0; c < 2*len(ops); c++ {
		labels = append(labels, fmt.Sprintf("%s %dT", ops[c/2], 1+c%2))
	}
	return p.kernelFigure(res, 1, labels, p.elemSizes(), func(c, elem int, sys *cell.System) func() float64 {
		return ppeKernel(sys, ops[c/2], 1+c%2, elem, buf)
	})
}

// ppeKernel installs one configuration on sys: op with the given element
// size on 1 or 2 threads over private buffers of buf bytes each, warm-up
// lap plus timed laps. Its read-out is the aggregate GB/s across threads.
func ppeKernel(sys *cell.System, op ppe.Op, threads, elem int, buf int64) func() float64 {
	// Timed laps: more for small buffers so timing is stable.
	laps := int64(1)
	if buf <= 1<<20 {
		laps = (4 << 20) / buf
	}
	var slowest sim.Time
	for th := 0; th < threads; th++ {
		src := sys.Alloc(buf, 128)
		dst := sys.Alloc(buf, 128)
		sys.PPE.Spawn(th, fmt.Sprintf("ppe%d", th), func(t *ppe.Thread) {
			lap := func() {
				switch op {
				case ppe.Load:
					t.StreamLoad(src, buf, elem)
				case ppe.Store:
					t.StreamStore(src, buf, elem)
				case ppe.Copy:
					t.StreamCopy(src, dst, buf, elem)
				}
			}
			lap() // warm-up
			start := t.Now()
			for i := int64(0); i < laps; i++ {
				lap()
			}
			if el := t.Now() - start; el > slowest {
				slowest = el
			}
		})
	}
	return func() float64 {
		bytes := int64(threads) * buf * laps
		if op == ppe.Copy {
			bytes *= 2
		}
		return sys.GBps(bytes, slowest)
	}
}
