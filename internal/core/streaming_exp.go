package core

import (
	"fmt"

	"cellbe/internal/cell"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
)

// streamBlock is the pipeline granularity: one maximum-size DMA.
const streamBlock = 16 * 1024

// signalCost approximates an SPE-to-SPE signal notification (a small DMA
// to a flag plus the channel reads around it).
const signalCost = 64

// Pipeline wires count SPEs (starting at logical index first) into a
// streaming pipeline: stage 0 GETs blocks from src, every stage PUTs
// blocks into its successor's local store, and the last stage PUTs to
// dst. Double buffering overlaps each stage's inbound and outbound
// transfers, and handshaking uses credit/full mailboxes.
type Pipeline struct {
	sys      *cell.System
	first    int
	count    int
	src, dst int64
	volume   int64

	credits []*spe.Mailbox // credits[i]: stage i+1 -> stage i
	fulls   []*spe.Mailbox // fulls[i]: stage i-1 -> stage i
	done    *sim.Signal
	endTime sim.Time
}

// NewPipeline builds (but does not start) a pipeline over
// sys.SPEs[first:first+count] moving volume bytes from src to dst in main
// memory. volume must be a multiple of the 16 KB block size.
func NewPipeline(sys *cell.System, first, count int, src, dst, volume int64) *Pipeline {
	if count < 1 || first < 0 || first+count > len(sys.SPEs) {
		panic("core: bad pipeline geometry")
	}
	if volume <= 0 || volume%streamBlock != 0 {
		panic("core: pipeline volume must be a multiple of 16 KB")
	}
	pl := &Pipeline{
		sys: sys, first: first, count: count,
		src: src, dst: dst, volume: volume,
		done: sim.NewSignal(sys.Eng),
	}
	for i := 0; i < count; i++ {
		pl.credits = append(pl.credits, spe.NewMailbox(sys.Eng, 4))
		pl.fulls = append(pl.fulls, spe.NewMailbox(sys.Eng, 4))
	}
	return pl
}

// Start spawns the stage kernels. Completion fires the Done signal.
func (pl *Pipeline) Start() {
	blocks := pl.volume / streamBlock
	for s := 0; s < pl.count; s++ {
		s := s
		idx := pl.first + s
		pl.sys.SPEs[idx].Run(fmt.Sprintf("stage%d", s), func(ctx *spe.Context) {
			pl.stage(ctx, s, blocks)
			if s == pl.count-1 {
				pl.endTime = ctx.Decrementer()
				pl.done.Fire()
			}
		})
	}
	// Prime two credits per stage link: each stage has two inbound
	// buffers free initially.
	for s := 0; s < pl.count-1; s++ {
		pl.credits[s].TryWrite(0)
		pl.credits[s].TryWrite(1)
	}
}

// Done returns the completion signal of the pipeline.
func (pl *Pipeline) Done() *sim.Signal { return pl.done }

// EndTime returns the cycle at which the last block left the pipeline.
func (pl *Pipeline) EndTime() sim.Time { return pl.endTime }

// Bandwidth returns the end-to-end throughput in GB/s after completion.
func (pl *Pipeline) Bandwidth() float64 {
	return pl.sys.GBps(pl.volume, pl.endTime)
}

// stage runs one pipeline stage. Inbound buffers live at LS offsets 0 and
// 16 KB; data is pushed downstream into the successor's inbound buffers.
// Tag 2+b tracks the outbound PUT of buffer b so the next reuse of that
// buffer can wait for it (the delayed-sync discipline of the paper).
func (pl *Pipeline) stage(ctx *spe.Context, s int, blocks int64) {
	last := s == pl.count-1
	firstStage := s == 0
	for blk := int64(0); blk < blocks; blk++ {
		b := int(blk % 2)
		if firstStage {
			// Buffer b is being refilled; its previous outbound PUT
			// must have retired (it shares the LS region).
			if blk >= 2 {
				ctx.WaitTag(2 + b)
			}
			ctx.Get(b*streamBlock, pl.src+blk*streamBlock, streamBlock, b)
			ctx.WaitTag(b)
		} else {
			// Upstream pushes into our buffer b and then signals.
			ctx.Wait(signalCost)
			if v := pl.fulls[s].Read(ctx.Process); int(v) != b {
				panic("core: pipeline handshake out of order")
			}
		}
		if last {
			ctx.Put(b*streamBlock, pl.dst+blk*streamBlock, streamBlock, 2+b)
			ctx.WaitTag(2 + b)
		} else {
			// Wait for the downstream buffer b to be free, push, then
			// signal full downstream; completion of the PUT is what
			// lets us signal, so wait the tag first.
			ctx.Wait(signalCost)
			if v := pl.credits[s].Read(ctx.Process); int(v) != b {
				panic("core: pipeline credit out of order")
			}
			ctx.Put(b*streamBlock, pl.sys.LSEA(pl.first+s+1, b*streamBlock), streamBlock, 2+b)
			ctx.WaitTag(2 + b)
			ctx.Wait(signalCost)
			pl.fulls[s+1].Write(ctx.Process, uint32(b))
		}
		if !firstStage {
			// Our inbound buffer b is consumed; return the credit.
			ctx.Wait(signalCost)
			pl.credits[s-1].Write(ctx.Process, uint32(b))
		}
	}
}

// Streaming reproduces the paper's §1/§5 guidance: a single data stream
// through all 8 SPEs versus two independent 4-SPE streams (and the other
// splits). The x axis is the number of parallel streams; total volume
// scales with streams (weak scaling). Two 4-SPE streams beat one 8-SPE
// stream because memory is read by two SPEs concurrently, which Figure 8
// shows is far more efficient than one.
func Streaming(p Params) (*Result, error) {
	res := &Result{
		Name:   "streaming",
		Title:  "Streaming: 1x8 SPEs vs 2x4 SPEs vs 4x2 SPEs (§1, §5)",
		XLabel: "parallel streams (8 SPEs total)",
		YLabel: "GB/s end-to-end",
	}
	return p.kernelFigure(res, p.Runs, []string{"aggregate"}, []int{1, 2, 4}, func(_, streams int, sys *cell.System) func() float64 {
		return p.streaming(sys, streams)
	})
}

// streaming installs streams pipelines of 8/streams SPEs each on sys,
// every one moving BytesPerSPE; its read-out is the aggregate end-to-end
// GB/s at the last pipeline's end.
func (p Params) streaming(sys *cell.System, streams int) func() float64 {
	perStream := cell.NumSPEs / streams
	volume := p.BytesPerSPE
	pls := make([]*Pipeline, streams)
	for st := range pls {
		src := sys.Alloc(volume, 1<<16)
		dst := sys.Alloc(volume, 1<<16)
		pls[st] = NewPipeline(sys, st*perStream, perStream, src, dst, volume)
		pls[st].Start()
	}
	return func() float64 {
		var lastEnd sim.Time
		for _, pl := range pls {
			lastEnd = max(lastEnd, pl.EndTime())
		}
		return sys.GBps(int64(streams)*volume, lastEnd)
	}
}
