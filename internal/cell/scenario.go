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
	// Op is the mem-scenario operation: "get", "put" or "copy" (Figure
	// 8(c): each buffer slot chains a fenced GET and PUT on its own tag,
	// from the SPE's region into a second one; both directions count).
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

	// figure holds the pair knobs only the paper's figure drivers vary
	// (see WithPairFigure); the zero value is the plain pair kernel.
	figure PairFigure
}

// PairFigure holds the pair-kernel knobs only the paper's figure drivers
// vary. They are deliberately not Scenario fields: sweeps, the CLIs and
// the server cannot reach them.
type PairFigure struct {
	// SyncEvery fences the tag groups after every SyncEvery issued
	// commands (Figure 10); 0 fences only once, at the end.
	SyncEvery int
	// Partner is the passive SPE the active SPE0 exchanges with (§4.2.3);
	// 0 means SPE1.
	Partner int
	// Remote places the partner on the blade's second chip, behind the
	// IOIF (the cross-chip extension).
	Remote bool
}

// WithPairFigure returns the pair scenario sc with the figure knobs f.
func (sc Scenario) WithPairFigure(f PairFigure) Scenario {
	sc.figure = f
	return sc
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
	return min(8, max(1, (128<<10)/chunk))
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
	if f := sc.figure; f != (PairFigure{}) {
		switch {
		case sc.Kind != "pair":
			return fmt.Errorf("cell: %w: figure knobs apply to the pair kind, not %q", ErrBadScenario, sc.Kind)
		case f.SyncEvery < 0:
			return fmt.Errorf("cell: %w: sync interval %d is negative", ErrBadScenario, f.SyncEvery)
		case f.Partner < 0 || f.Partner >= NumSPEs:
			return fmt.Errorf("cell: %w: partner SPE %d out of range 1..%d", ErrBadScenario, f.Partner, NumSPEs-1)
		case f.Remote && f.Partner != 0:
			return fmt.Errorf("cell: %w: a remote partner takes no local partner index", ErrBadScenario)
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
	return min(mfc.MaxListElements, max(1, mfc.MaxTransfer/chunk))
}

// Install validates sc and installs its kernels on sys. It returns the
// total payload bytes the scenario accounts for (the figure bandwidth is
// computed from). Run the system afterwards to execute the kernels.
//
// Every kind that moves data installs its kernels as lanes of the DMA
// interpreter (see dmaStream): the pair family as one ring phase against
// its partner's local store, mem as one memory phase over a private
// region, the workload library as its phase program. Only wedge spawns
// coroutines, because it must block on a mailbox.
func (sc Scenario) Install(sys *System) (int64, error) {
	if err := sc.Validate(); err != nil {
		return 0, err
	}
	var total int64
	switch sc.Kind {
	case "wedge":
		for i := 0; i < sc.SPEs; i++ {
			sys.SPEs[i].Run(fmt.Sprintf("spe%d", i), func(ctx *spe.Context) {
				ctx.ReadMailbox() // nobody ever writes: deadlocks on purpose
			})
		}
	case "pair", "couples", "cycle":
		ring := []Phase{{Access: "ring", Bytes: sc.Volume}}
		pair := func(idx int, peerEA int64) {
			total += 2 * sc.Volume
			sys.installStream(lane{idx: idx, chunk: sc.Chunk, list: sc.List, phases: ring, reps: 1,
				getEA: peerEA, putEA: peerEA, syncEvery: sc.figure.SyncEvery})
		}
		switch {
		case sc.Kind == "couples":
			for c := 0; c < sc.SPEs/2; c++ {
				pair(2*c, sys.LSEA(2*c+1, 0))
			}
		case sc.Kind == "cycle":
			for i := 0; i < sc.SPEs; i++ {
				pair(i, sys.LSEA((i+1)%sc.SPEs, 0))
			}
		case sc.figure.Remote:
			pair(0, sys.RemoteLSEA(0, 0))
		default:
			pair(0, sys.LSEA(max(1, sc.figure.Partner), 0))
		}
	case "mem":
		phases := []Phase{{Access: "seq", Op: sc.Op, Bytes: sc.Volume}}
		nslots := (sc.Volume + int64(sc.Chunk) - 1) / int64(sc.Chunk)
		for i := 0; i < sc.SPEs; i++ {
			l := lane{idx: i, chunk: sc.Chunk, list: sc.List, phases: phases, reps: 1, nslots: nslots}
			var err error
			if l.base, err = sys.TryAlloc(sc.Volume, 1<<16); err != nil {
				return 0, err
			}
			total += sc.Volume
			if sc.Op == "copy" {
				// Copy reads one region and writes another; both
				// directions count.
				if l.dst, err = sys.TryAlloc(sc.Volume, 1<<16); err != nil {
					return 0, err
				}
				total += sc.Volume
			}
			sys.installStream(l)
		}
	default: // the workload library: gups, qcd, md, stream, pattern
		var err error
		if total, err = sc.installPattern(sys); err != nil {
			return 0, err
		}
	}
	sys.scen = sc
	return total, nil
}
