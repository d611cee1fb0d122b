package cell

import (
	"errors"
	"fmt"

	"cellbe/internal/mfc"
	"cellbe/internal/spe"
)

// ErrBadScenario is wrapped by every Scenario.Validate rejection, so
// callers (and the fuzzer) can distinguish "the user asked for an
// impossible workload" from simulation failures with errors.Is.
var ErrBadScenario = errors.New("invalid scenario")

// Scenario describes one of the canonical DMA workloads the paper's
// SPE-to-SPE experiments are built from. The same scenarios back the
// cellsim debugging tool, the cellbench sweep runner, the saturation
// benchmarks and the scheduler determinism test, so all of them drive
// cycle-for-cycle identical kernels.
type Scenario struct {
	// Kind selects the traffic pattern: "pair" (SPE0 pulls from and
	// pushes to SPE1), "couples" (disjoint pairs), "cycle" (SPE i
	// exchanges with SPE i+1 mod N, the paper's worst case) or "mem"
	// (every SPE streams against main memory). The extra kind "wedge" is
	// a deliberately deadlocked scenario (every SPE blocks on a mailbox
	// nobody writes) for exercising the simulation watchdog.
	//
	// The workload library adds "gups", "qcd", "md" and "stream" — named
	// application workloads defined as data over the access-pattern
	// layer — and "pattern", an explicit phase program via the Pattern
	// field. See pattern.go.
	Kind string
	// SPEs is the number of SPEs involved (couples/cycle/mem; pair
	// always uses SPE0 and SPE1).
	SPEs int
	// Chunk is the DMA element size in bytes.
	Chunk int
	// Volume is the bytes moved per active SPE.
	Volume int64
	// Op is the mem-scenario operation: "get", "put" or "copy".
	Op string
	// List switches the kernels from DMA-elem to DMA-list commands
	// (GETL/PUTL): the same volume grouped into lists of up to 16 KB, with
	// list elements of Chunk bytes — the paper's Figures 12(b)/15(b)
	// discipline. Not defined for the wedge scenario or the mem copy op.
	List bool
	// Ring is the neighbour distance of the qcd preset's halo-exchange
	// ring (0 means 1, nearest neighbour). Only valid for kind "qcd".
	Ring int `json:",omitempty"`
	// AddrSeeds optionally pins the per-SPE address-stream seeds of
	// seeded-random phases, one per active SPE. Nil derives fixed
	// layout-independent lane seeds. Only valid for the workload-library
	// kinds (gups, qcd, md, stream, pattern).
	AddrSeeds []int64 `json:",omitempty"`
	// Pattern is the explicit phase program of kind "pattern"; the named
	// workload presets build theirs internally. See pattern.go.
	Pattern *Pattern `json:",omitempty"`
}

// pairGetBase/pairPutBase split an SPE's local store into a receive and a
// send aperture for the pair kernels. The put aperture starts at 128 KB so
// the 8 in-flight slots of the largest (16 KB) element never overlap the
// get slots: 128 KB + 8*16 KB = 256 KB exactly fills the local store.
const (
	pairGetBase = 0
	pairPutBase = 128 << 10
)

// pairSlots returns the number of in-flight buffer slots the pair kernel
// cycles through for a given element size.
func pairSlots(chunk int) int {
	slots := (128 << 10) / chunk
	if slots > 8 {
		slots = 8
	}
	if slots < 1 {
		slots = 1
	}
	return slots
}

// Validate checks the scenario parameters against the architectural
// limits before any kernel runs, so a bad -chunk fails with a clear
// message instead of a panic (or silently corrupted local-store offsets)
// deep inside the simulation.
func (sc Scenario) Validate() error {
	switch sc.Kind {
	case "pair", "couples", "cycle", "mem":
		if err := sc.rejectPatternKnobs(); err != nil {
			return err
		}
	case "gups", "qcd", "md", "stream", "pattern":
		return sc.validatePattern()
	case "wedge":
		// The watchdog-test scenario moves no data; only the SPE count
		// matters.
		if err := sc.rejectPatternKnobs(); err != nil {
			return err
		}
		if sc.List {
			return fmt.Errorf("cell: %w: the wedge scenario has no DMA-list variant", ErrBadScenario)
		}
		if sc.SPEs < 1 || sc.SPEs > NumSPEs {
			return fmt.Errorf("cell: %w: %d SPEs out of range 1..%d", ErrBadScenario, sc.SPEs, NumSPEs)
		}
		return nil
	default:
		return fmt.Errorf("cell: %w: unknown scenario %q (want pair, couples, cycle, mem, wedge, gups, qcd, md, stream or pattern)", ErrBadScenario, sc.Kind)
	}
	if sc.Chunk < 16 || sc.Chunk%16 != 0 {
		return fmt.Errorf("cell: %w: chunk %d must be a multiple of 16 bytes", ErrBadScenario, sc.Chunk)
	}
	if sc.Chunk > mfc.MaxTransfer {
		return fmt.Errorf("cell: %w: chunk %d exceeds the %d-byte DMA element limit", ErrBadScenario, sc.Chunk, mfc.MaxTransfer)
	}
	if sc.Volume <= 0 {
		return fmt.Errorf("cell: %w: volume must be positive", ErrBadScenario)
	}
	if sc.Kind != "pair" {
		if sc.SPEs < 1 || sc.SPEs > NumSPEs {
			return fmt.Errorf("cell: %w: %d SPEs out of range 1..%d", ErrBadScenario, sc.SPEs, NumSPEs)
		}
		if sc.Kind == "couples" && sc.SPEs%2 != 0 {
			return fmt.Errorf("cell: %w: couples scenario needs an even SPE count, got %d", ErrBadScenario, sc.SPEs)
		}
	}
	if sc.Kind == "pair" || sc.Kind == "couples" || sc.Kind == "cycle" {
		// The put aperture must hold every slot below the top of local
		// store; guaranteed for chunk <= MaxTransfer, but keep the check
		// so aperture changes cannot silently reintroduce an overflow.
		slots := pairSlots(sc.Chunk)
		if end := pairPutBase + slots*sc.Chunk; end > spe.LocalStoreBytes {
			return fmt.Errorf("cell: %w: chunk %d overflows local store (put aperture ends at %#x)", ErrBadScenario, sc.Chunk, end)
		}
	}
	if sc.Kind == "mem" {
		switch sc.Op {
		case "get", "put", "copy":
		default:
			return fmt.Errorf("cell: %w: unknown mem op %q (want get, put or copy)", ErrBadScenario, sc.Op)
		}
		if sc.List && sc.Op == "copy" {
			return fmt.Errorf("cell: %w: the mem copy op has no DMA-list variant", ErrBadScenario)
		}
	}
	return nil
}

// rejectPatternKnobs guards the canonical kinds against workload-library
// fields leaking in: a ring step, explicit address seeds or a phase
// program on a pair/mem-family scenario is a configuration error, not
// something to silently ignore.
func (sc Scenario) rejectPatternKnobs() error {
	switch {
	case sc.Ring != 0:
		return fmt.Errorf("cell: %w: ring step is a workload-library knob, not valid for kind %q", ErrBadScenario, sc.Kind)
	case sc.AddrSeeds != nil:
		return fmt.Errorf("cell: %w: address-stream seeds are a workload-library knob, not valid for kind %q", ErrBadScenario, sc.Kind)
	case sc.Pattern != nil:
		return fmt.Errorf("cell: %w: an explicit phase program needs kind \"pattern\", not %q", ErrBadScenario, sc.Kind)
	}
	return nil
}

// listLength returns how many Chunk-sized elements one DMA list groups:
// up to one MaxTransfer per list, capped at the architectural list length.
func listLength(chunk int) int {
	n := mfc.MaxTransfer / chunk
	if n < 1 {
		n = 1
	}
	if n > mfc.MaxListElements {
		n = mfc.MaxListElements
	}
	return n
}

// pairListLoop is the DMA-list variant of the pair kernel: the same
// bidirectional volume, grouped into GETL/PUTL commands whose elements
// cycle through the peer's receive window, double-buffered inside the
// get/put apertures.
func pairListLoop(ctx *spe.Context, sc Scenario, peerEA int64) {
	perList := listLength(sc.Chunk)
	listBytes := int64(perList * sc.Chunk)
	peerSlots := pairSlots(sc.Chunk)
	i := 0
	for off := int64(0); off < sc.Volume; off += listBytes {
		list := make([]mfc.ListElem, 0, perList)
		for k := 0; k < perList && off+int64(k*sc.Chunk) < sc.Volume; k++ {
			slot := i % peerSlots
			list = append(list, mfc.ListElem{EA: peerEA + int64(slot*sc.Chunk), Size: sc.Chunk})
			i++
		}
		lsOff := int(off % (64 << 10))
		if lsOff+perList*sc.Chunk > 64<<10 {
			lsOff = 0
		}
		ctx.GetList(pairGetBase+lsOff, list, 0)
		ctx.PutList(pairPutBase+lsOff, list, 1)
	}
	ctx.WaitTagMask(1<<0 | 1<<1)
}

// memListLoop is the DMA-list variant of the mem kernel: GETL or PUTL
// lists of Chunk-sized elements streaming over the region at base.
func memListLoop(ctx *spe.Context, sc Scenario, base int64) {
	perList := listLength(sc.Chunk)
	listBytes := int64(perList * sc.Chunk)
	for off := int64(0); off < sc.Volume; off += listBytes {
		list := make([]mfc.ListElem, 0, perList)
		for k := 0; k < perList && off+int64(k*sc.Chunk) < sc.Volume; k++ {
			list = append(list, mfc.ListElem{EA: base + off + int64(k*sc.Chunk), Size: sc.Chunk})
		}
		lsOff := int(off % (64 << 10))
		if lsOff+perList*sc.Chunk > 64<<10 {
			lsOff = 0
		}
		if sc.Op == "get" {
			ctx.GetList(lsOff, list, 0)
		} else {
			ctx.PutList(lsOff, list, 0)
		}
	}
	ctx.WaitTagMask(1 << 0)
}

// Install validates sc and installs its kernels on sys. It returns the
// total payload bytes the scenario accounts for (the figure bandwidth is
// computed from). Run the system afterwards to execute the kernels.
func (sc Scenario) Install(sys *System) (int64, error) {
	if err := sc.Validate(); err != nil {
		return 0, err
	}
	var total int64
	spawn := func(idx int, bytes int64, kernel func(ctx *spe.Context)) {
		total += bytes
		sys.SPEs[idx].Run(fmt.Sprintf("spe%d", idx), kernel)
	}
	pairKernel := func(idx, peer int) {
		if sc.List {
			spawn(idx, 2*sc.Volume, func(ctx *spe.Context) {
				pairListLoop(ctx, sc, sys.LSEA(peer, 0))
			})
			return
		}
		// The element variant runs as a registered stream: the same loop,
		// reified as an event-driven state machine (see dmaStream).
		total += 2 * sc.Volume
		sys.installStream(&dmaStream{
			idx:    idx,
			chunk:  sc.Chunk,
			slots:  pairSlots(sc.Chunk),
			iters:  (sc.Volume + int64(sc.Chunk) - 1) / int64(sc.Chunk),
			peerEA: sys.LSEA(peer, 0),
		})
	}
	switch sc.Kind {
	case "gups", "qcd", "md", "stream", "pattern":
		// The whole workload library shares this one arm: the phase
		// program (preset or explicit) runs on the generic interpreter.
		if err := sc.installPattern(sys, spawn); err != nil {
			return 0, err
		}
	case "pair":
		pairKernel(0, 1)
	case "couples":
		for c := 0; c < sc.SPEs/2; c++ {
			pairKernel(2*c, 2*c+1)
		}
	case "cycle":
		for i := 0; i < sc.SPEs; i++ {
			pairKernel(i, (i+1)%sc.SPEs)
		}
	case "wedge":
		for i := 0; i < sc.SPEs; i++ {
			spawn(i, 0, func(ctx *spe.Context) {
				ctx.ReadMailbox() // nobody ever writes: deadlocks on purpose
			})
		}
	case "mem":
		for i := 0; i < sc.SPEs; i++ {
			base, err := sys.TryAlloc(sc.Volume, 1<<16)
			if err != nil {
				return 0, err
			}
			spawn(i, sc.Volume, func(ctx *spe.Context) {
				if sc.List {
					memListLoop(ctx, sc, base)
					return
				}
				for off := int64(0); off < sc.Volume; off += int64(sc.Chunk) {
					ls := int(off) % (128 << 10)
					if ls+sc.Chunk > 128<<10 {
						ls = 0
					}
					switch sc.Op {
					case "get":
						ctx.Get(ls, base+off, sc.Chunk, 0)
					case "put":
						ctx.Put(ls, base+off, sc.Chunk, 0)
					case "copy":
						ctx.GetF(ls, base+off, sc.Chunk, 0)
						ctx.PutF(ls, base+off, sc.Chunk, 0)
					}
				}
				ctx.WaitTagMask(^uint32(0))
			})
		}
	}
	sys.scen = sc
	return total, nil
}
