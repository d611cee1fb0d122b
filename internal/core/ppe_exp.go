package core

import (
	"fmt"

	"cellbe/internal/ppe"
	"cellbe/internal/sim"
	"cellbe/internal/stats"
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
	if err := p.validate(); err != nil {
		return nil, err
	}
	buf := p.bufBytes(level)
	res := &Result{
		Name:   "ppe-" + map[CacheLevel]string{LevelL1: "l1", LevelL2: "l2", LevelMem: "mem"}[level],
		Title:  fmt.Sprintf("PPE to %s: load/store/copy for 1 and 2 threads", level),
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	// PPE results do not depend on the SPE layout, but we keep the same
	// multi-run structure (results are deterministic, so Runs collapses
	// to 1 here to avoid wasted work). Each kernel boots its own System,
	// so they fan out across cores, dispatched in reverse declaration
	// order: the two-thread copies, the longest kernels, start first.
	// Kernel k runs op ops[curve/2] on 1+curve%2 threads at element size
	// elems[k%len(elems)], where curve = k/len(elems) indexes the curves
	// in result order.
	ops := []ppe.Op{ppe.Load, ppe.Store, ppe.Copy}
	elems := p.elemSizes()
	bw := make([]float64, len(ops)*2*len(elems))
	fanOut(len(bw), func(i int) {
		k := len(bw) - 1 - i
		curve := k / len(elems)
		bw[k] = runPPEKernel(p, ops[curve/2], 1+curve%2, elems[k%len(elems)], buf)
	})
	for curve := 0; curve < 2*len(ops); curve++ {
		series := stats.NewSeries(fmt.Sprintf("%s %dT", ops[curve/2], 1+curve%2), elems)
		for j, elem := range elems {
			series.Add(elem, bw[curve*len(elems)+j])
		}
		res.Curves = append(res.Curves, CurveFromSeries(series))
	}
	return res, nil
}

// runPPEKernel measures one configuration: op with the given element size
// on 1 or 2 threads over private buffers of buf bytes each, warm-up lap
// plus timed laps. Returns aggregate GB/s across threads.
func runPPEKernel(p Params, op ppe.Op, threads, elem int, buf int64) float64 {
	sys := p.newSystem(0)
	// Timed laps: more for small buffers so timing is stable.
	laps := int64(1)
	if buf <= 1<<20 {
		laps = (4 << 20) / buf
	}
	var slowest sim.Time
	for th := 0; th < threads; th++ {
		th := th
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
	sys.Run()
	bytes := int64(threads) * buf * laps
	if op == ppe.Copy {
		bytes *= 2
	}
	return sys.GBps(bytes, slowest)
}
