package cell

// The access-pattern layer: application workloads expressed as data.
//
// A Pattern is a small phase program — per-SPE DMA address streams
// (sequential, strided, seeded-random), SPE<->SPE neighbour exchange over
// a configurable ring, and compute/communicate alternation with per-phase
// byte volumes — run by the SPU DMA interpreter (dmaStream, stream.go)
// that runs every scenario kernel. The named workload kinds (gups, qcd,
// md, stream) are presets that build a Pattern from the Scenario knobs;
// they add no kernel code of their own. The interpreter's element and
// next methods are the only place phase semantics live.
//
// Workload lineage:
//   - gups:   random-access (RandomAccess/GUPS) gathers and scatters over
//     one shared table spanning both XDR banks, element sizes 8..128 B —
//     the access discipline Chen & Bader used to characterise Cell BE
//     irregular-access performance.
//   - qcd:    lattice-QCD inner loop à la Belletti et al., "QCD on the
//     Cell Broadband Engine": bulk spinor-field streaming plus
//     nearest-neighbour halo exchange around an SPE ring.
//   - md:     molecular-dynamics force loop: gather neighbour positions,
//     compute, scatter forces, repeated per timestep.
//   - stream: McCalpin STREAM (copy/scale/add/triad), reporting the
//     read+write bytes the STREAM convention counts.

import (
	"fmt"

	"cellbe/internal/mfc"
)

// Phase is one step of a Pattern's per-rep program.
type Phase struct {
	// Access selects the address discipline: "seq" (a cursor walking the
	// region), "stride" (cursor advancing Stride bytes per element),
	// "rand" (seeded-random element slots over the region), "ring"
	// (halo exchange with the two ring neighbours' local stores) or
	// "compute" (SPU busy cycles, no traffic).
	Access string `json:"access"`
	// Op directs memory phases: "get", "put" or "both" (a get and a put
	// per element, the copy discipline). Ring and compute phases take no
	// Op.
	Op string `json:"op,omitempty"`
	// Bytes is the per-SPE payload this phase moves per rep (the halo
	// width for ring phases). Must be a positive multiple of the
	// scenario chunk.
	Bytes int64 `json:"bytes,omitempty"`
	// Stride is the address step in bytes between consecutive elements
	// of a "stride" phase; a positive multiple of the chunk.
	Stride int64 `json:"stride,omitempty"`
	// Cycles is the SPU busy time of a "compute" phase.
	Cycles int64 `json:"cycles,omitempty"`
	// Async leaves the phase's DMA in flight instead of fencing on its
	// tags at the phase boundary; the next synchronous phase (or the end
	// of the kernel) collects it. This is how stream add/triad overlap
	// their second input stream with the copy stream.
	Async bool `json:"async,omitempty"`
}

// Pattern is a declarative per-SPE workload: the phase program every
// active SPE runs Reps times over a memory region.
type Pattern struct {
	Phases []Phase `json:"phases"`
	// Reps repeats the phase program; 0 means 1.
	Reps int `json:"reps,omitempty"`
	// Region is the per-SPE (or shared, see Shared) memory window in
	// bytes that seq/stride/rand phases address. Required when any
	// memory phase exists; at least one chunk.
	Region int64 `json:"region,omitempty"`
	// RingStep is the neighbour distance of ring phases; 0 means 1.
	RingStep int `json:"ring_step,omitempty"`
	// Shared makes all lanes address one shared region (the GUPS table)
	// instead of a private region per SPE.
	Shared bool `json:"shared,omitempty"`
}

// Architectural and sanity caps for explicit phase programs; the presets
// stay far inside them by construction.
const (
	maxPatternPhases = 16
	maxPatternReps   = 1 << 16
	maxPatternRegion = 64 << 20
	maxPhaseBytes    = 1 << 30
	maxComputeCycles = 1 << 32
)

// Preset region sizes. The GUPS table deliberately spans many XDR pages
// so the interleaved mapping spreads random elements over both banks; the
// MD window models a neighbour-list slab.
const (
	gupsRegionBytes = 16 << 20
	mdRegionBytes   = 4 << 20
)

// workloadPreset describes one named workload: which ops it accepts
// (ops[0] is the default for an empty Scenario.Op), its chunk envelope,
// and the builder producing its Pattern from the Scenario knobs.
type workloadPreset struct {
	ops      []string
	minChunk int
	maxChunk int
	build    func(sc Scenario) Pattern
}

// workloadPresets is the workload library. Adding a workload means adding
// a row here — the interpreter below is workload-agnostic.
var workloadPresets = map[string]workloadPreset{
	"gups":   {ops: []string{"both", "get", "put"}, minChunk: 8, maxChunk: 128, build: gupsPattern},
	"qcd":    {ops: []string{""}, minChunk: 16, maxChunk: mfc.MaxTransfer, build: qcdPattern},
	"md":     {ops: []string{""}, minChunk: 16, maxChunk: mfc.MaxTransfer, build: mdPattern},
	"stream": {ops: []string{"triad", "copy", "scale", "add"}, minChunk: 16, maxChunk: mfc.MaxTransfer, build: streamPattern},
}

// WithDefaultOp returns sc with an empty Op replaced by the kind's
// default operation: "get" for the canonical kinds (preserving the
// historical sweep default), the preset's first op for workload kinds,
// and no op for explicit patterns (their phases carry the ops).
// Validate itself stays strict, so callers constructing scenarios by
// hand still fail loudly on a missing op.
func (sc Scenario) WithDefaultOp() Scenario {
	if sc.Op != "" {
		return sc
	}
	if p, ok := workloadPresets[sc.Kind]; ok {
		sc.Op = p.ops[0]
		return sc
	}
	if sc.Kind != "pattern" {
		sc.Op = "get"
	}
	return sc
}

// roundToChunk rounds v up to a whole number of chunks, at least one.
func roundToChunk(v int64, chunk int) int64 {
	c := int64(chunk)
	if v < c {
		return c
	}
	return (v + c - 1) / c * c
}

// regionOf floors a nominal region size to whole chunks (at least one),
// so every element slot lies fully inside the window.
func regionOf(bytes int64, chunk int) int64 {
	c := int64(chunk)
	n := bytes / c * c
	if n < c {
		n = c
	}
	return n
}

// gupsPattern: one seeded-random phase over a shared 16 MB table. Op
// "both" issues a gather and a scatter per element (the RandomAccess
// read-modify-write); "get"/"put" isolate one direction.
func gupsPattern(sc Scenario) Pattern {
	return Pattern{
		Phases: []Phase{{Access: "rand", Op: sc.Op, Bytes: roundToChunk(sc.Volume, sc.Chunk)}},
		Region: regionOf(gupsRegionBytes, sc.Chunk),
		Shared: true,
	}
}

// qcdReps/qcdComputeDiv shape the qcd preset: four sweep iterations per
// run, with SPU compute time proportional to the bulk streamed per rep
// (about one cycle per 8 bytes — comparable to, not dwarfing, the DMA
// time, so compute/communicate alternation is visible in the timing).
const (
	qcdReps       = 4
	qcdComputeDiv = 8
)

// qcdPattern: per rep, stream a bulk spinor-field slab in, exchange a
// chunk-wide halo with both ring neighbours, compute, stream results
// out. The region spans the whole per-SPE field so the sequential cursor
// walks it across reps.
func qcdPattern(sc Scenario) Pattern {
	bulk := roundToChunk(sc.Volume/qcdReps, sc.Chunk)
	step := sc.Ring
	if step == 0 {
		step = 1
	}
	return Pattern{
		Phases: []Phase{
			{Access: "seq", Op: "get", Bytes: bulk},
			{Access: "ring", Bytes: int64(sc.Chunk)},
			{Access: "compute", Cycles: bulk / qcdComputeDiv},
			{Access: "seq", Op: "put", Bytes: bulk},
		},
		Reps:     qcdReps,
		Region:   bulk * qcdReps,
		RingStep: step,
	}
}

// mdReps/mdComputeDiv shape the md preset: four force-loop timesteps,
// compute-heavier than qcd (one cycle per 4 gathered bytes).
const (
	mdReps       = 4
	mdComputeDiv = 4
)

// mdPattern: per timestep, gather a slab of neighbour positions from
// random slots of a private window, compute forces, scatter them back.
func mdPattern(sc Scenario) Pattern {
	slab := roundToChunk(sc.Volume/(2*mdReps), sc.Chunk)
	return Pattern{
		Phases: []Phase{
			{Access: "rand", Op: "get", Bytes: slab},
			{Access: "compute", Cycles: slab / mdComputeDiv},
			{Access: "rand", Op: "put", Bytes: slab},
		},
		Reps:   mdReps,
		Region: regionOf(mdRegionBytes, sc.Chunk),
	}
}

// streamPhaseTable maps each STREAM op to its phase program; Bytes holds
// the array-length multiplier the builder scales by the scenario volume.
// Copy and scale stream one array in and one out ("both" = a get and a
// put per element); add and triad overlap a second asynchronous input
// stream, for three arrays total — the McCalpin byte-counting convention
// falls out of the accounting (both = 2x, ring = 2x).
var streamPhaseTable = map[string][]Phase{
	"copy":  {{Access: "seq", Op: "both", Bytes: 1}},
	"scale": {{Access: "seq", Op: "both", Bytes: 1}},
	"add":   {{Access: "seq", Op: "get", Bytes: 1, Async: true}, {Access: "seq", Op: "both", Bytes: 1}},
	"triad": {{Access: "seq", Op: "get", Bytes: 1, Async: true}, {Access: "seq", Op: "both", Bytes: 1}},
}

// streamPattern scales the op's phase table by the per-SPE array length.
func streamPattern(sc Scenario) Pattern {
	v := roundToChunk(sc.Volume, sc.Chunk)
	tpl := streamPhaseTable[sc.Op]
	phases := make([]Phase, len(tpl))
	for i, ph := range tpl {
		ph.Bytes *= v
		phases[i] = ph
	}
	return Pattern{Phases: phases, Region: v}
}

// pattern resolves the scenario's phase program: the preset builder for
// workload kinds, the explicit program for kind "pattern". Callers run
// it only after Validate.
func (sc Scenario) pattern() Pattern {
	if p, ok := workloadPresets[sc.Kind]; ok {
		return p.build(sc)
	}
	return *sc.Pattern
}

// reps returns the effective repetition count (0 means 1).
func (p Pattern) reps() int {
	if p.Reps < 1 {
		return 1
	}
	return p.Reps
}

// ringStep returns the effective neighbour distance (0 means 1).
func (p Pattern) ringStep() int {
	if p.RingStep < 1 {
		return 1
	}
	return p.RingStep
}

// hasRing/hasMem report which resources the program needs.
func (p Pattern) hasRing() bool {
	for _, ph := range p.Phases {
		if ph.Access == "ring" {
			return true
		}
	}
	return false
}

func (p Pattern) hasMem() bool {
	for _, ph := range p.Phases {
		switch ph.Access {
		case "seq", "stride", "rand":
			return true
		}
	}
	return false
}

// LaneBytes is the accounted payload one SPE moves over the whole run:
// actual DMA traffic in both directions (ring and "both" phases count
// twice — the STREAM read+write convention). Request validators use it
// to cap explicit phase programs the way Volume caps the presets.
func (p Pattern) LaneBytes() int64 {
	var per int64
	for _, ph := range p.Phases {
		switch {
		case ph.Access == "compute":
		case ph.Access == "ring" || ph.Op == "both":
			per += 2 * ph.Bytes
		default:
			per += ph.Bytes
		}
	}
	return per * int64(p.reps())
}

// validatePattern is the pattern-family arm of Scenario.Validate: it
// checks the scenario knobs against the preset envelope (or the explicit
// program against the architectural caps) and then the resolved Pattern
// itself. Every rejection wraps ErrBadScenario.
func (sc Scenario) validatePattern() error {
	if sc.List {
		return fmt.Errorf("cell: %w: workload kind %q has no DMA-list variant", ErrBadScenario, sc.Kind)
	}
	if sc.SPEs < 1 || sc.SPEs > NumSPEs {
		return fmt.Errorf("cell: %w: %d SPEs out of range 1..%d", ErrBadScenario, sc.SPEs, NumSPEs)
	}
	if sc.AddrSeeds != nil && len(sc.AddrSeeds) != sc.SPEs {
		return fmt.Errorf("cell: %w: %d address-stream seeds for %d SPEs (want one per SPE)", ErrBadScenario, len(sc.AddrSeeds), sc.SPEs)
	}
	preset, named := workloadPresets[sc.Kind]
	minChunk, maxChunk := 8, mfc.MaxTransfer
	if named {
		minChunk, maxChunk = preset.minChunk, preset.maxChunk
	}
	switch {
	case sc.Chunk == 8 && minChunk <= 8:
		// The sub-quadword GUPS element: a naturally aligned 8-byte DMA.
	case sc.Chunk >= 16 && sc.Chunk%16 == 0 && sc.Chunk >= minChunk && sc.Chunk <= maxChunk:
	default:
		return fmt.Errorf("cell: %w: chunk %d outside the %q element envelope (8 or a multiple of 16 in %d..%d)",
			ErrBadScenario, sc.Chunk, sc.Kind, minChunk, maxChunk)
	}
	if named {
		if sc.Pattern != nil {
			return fmt.Errorf("cell: %w: kind %q builds its own pattern; an explicit one needs kind \"pattern\"", ErrBadScenario, sc.Kind)
		}
		if sc.Volume <= 0 {
			return fmt.Errorf("cell: %w: volume must be positive", ErrBadScenario)
		}
		ok := false
		for _, op := range preset.ops {
			if sc.Op == op {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("cell: %w: op %q not valid for kind %q (want one of %q)", ErrBadScenario, sc.Op, sc.Kind, preset.ops)
		}
		if sc.Ring != 0 && sc.Kind != "qcd" {
			return fmt.Errorf("cell: %w: ring step is a qcd knob, not valid for kind %q", ErrBadScenario, sc.Kind)
		}
	} else {
		if sc.Pattern == nil {
			return fmt.Errorf("cell: %w: kind \"pattern\" needs an explicit phase program", ErrBadScenario)
		}
		if sc.Op != "" {
			return fmt.Errorf("cell: %w: kind \"pattern\" takes its ops from the phases, not a scenario op", ErrBadScenario)
		}
		if sc.Ring != 0 {
			return fmt.Errorf("cell: %w: kind \"pattern\" sets its ring step inside the pattern", ErrBadScenario)
		}
	}
	if sc.Kind == "qcd" {
		if sc.SPEs < 2 {
			return fmt.Errorf("cell: %w: the qcd ring needs at least 2 SPEs", ErrBadScenario)
		}
		if sc.Ring < 0 || sc.Ring >= sc.SPEs {
			return fmt.Errorf("cell: %w: ring step %d out of range 1..%d", ErrBadScenario, sc.Ring, sc.SPEs-1)
		}
	}
	return sc.pattern().validate(sc)
}

// validate checks a resolved phase program against the chunk and the
// architectural caps.
func (p Pattern) validate(sc Scenario) error {
	chunk := int64(sc.Chunk)
	if len(p.Phases) == 0 || len(p.Phases) > maxPatternPhases {
		return fmt.Errorf("cell: %w: pattern needs 1..%d phases, got %d", ErrBadScenario, maxPatternPhases, len(p.Phases))
	}
	if p.Reps < 0 || p.Reps > maxPatternReps {
		return fmt.Errorf("cell: %w: pattern reps %d out of range 0..%d", ErrBadScenario, p.Reps, maxPatternReps)
	}
	for i, ph := range p.Phases {
		switch ph.Access {
		case "compute":
			if ph.Cycles < 1 || ph.Cycles > maxComputeCycles {
				return fmt.Errorf("cell: %w: phase %d: compute needs positive cycles up to %d", ErrBadScenario, i, int64(maxComputeCycles))
			}
			if ph.Bytes != 0 || ph.Stride != 0 || ph.Op != "" {
				return fmt.Errorf("cell: %w: phase %d: compute moves no data (bytes, stride and op must be unset)", ErrBadScenario, i)
			}
		case "ring":
			if sc.SPEs < 2 {
				return fmt.Errorf("cell: %w: phase %d: ring exchange needs at least 2 SPEs", ErrBadScenario, i)
			}
			if p.RingStep < 0 || p.RingStep >= sc.SPEs {
				return fmt.Errorf("cell: %w: ring step %d out of range 1..%d", ErrBadScenario, p.RingStep, sc.SPEs-1)
			}
			if ph.Op != "" {
				return fmt.Errorf("cell: %w: phase %d: ring exchange is bidirectional, takes no op", ErrBadScenario, i)
			}
			if err := checkPhaseBytes(i, ph.Bytes, chunk); err != nil {
				return err
			}
		case "seq", "stride", "rand":
			switch ph.Op {
			case "get", "put", "both":
			default:
				return fmt.Errorf("cell: %w: phase %d: op %q (want get, put or both)", ErrBadScenario, i, ph.Op)
			}
			if err := checkPhaseBytes(i, ph.Bytes, chunk); err != nil {
				return err
			}
			if ph.Access == "stride" {
				if ph.Stride < chunk || ph.Stride%chunk != 0 {
					return fmt.Errorf("cell: %w: phase %d: stride %d must be a positive multiple of the %d-byte chunk", ErrBadScenario, i, ph.Stride, chunk)
				}
			} else if ph.Stride != 0 {
				return fmt.Errorf("cell: %w: phase %d: stride only applies to stride phases", ErrBadScenario, i)
			}
			if ph.Cycles != 0 {
				return fmt.Errorf("cell: %w: phase %d: cycles only apply to compute phases", ErrBadScenario, i)
			}
		default:
			return fmt.Errorf("cell: %w: phase %d: unknown access %q (want seq, stride, rand, ring or compute)", ErrBadScenario, i, ph.Access)
		}
	}
	if !p.hasMem() && !p.hasRing() {
		return fmt.Errorf("cell: %w: pattern moves no data; it needs at least one memory or ring phase", ErrBadScenario)
	}
	if p.hasMem() {
		if p.Region < chunk || p.Region%chunk != 0 || p.Region > maxPatternRegion {
			return fmt.Errorf("cell: %w: region %d must be a whole number of %d-byte chunks up to %d", ErrBadScenario, p.Region, chunk, int64(maxPatternRegion))
		}
	}
	return nil
}

func checkPhaseBytes(i int, bytes, chunk int64) error {
	if bytes < chunk || bytes%chunk != 0 || bytes > maxPhaseBytes {
		return fmt.Errorf("cell: %w: phase %d: %d bytes must be a whole number of %d-byte chunks up to %d", ErrBadScenario, i, bytes, chunk, int64(maxPhaseBytes))
	}
	return nil
}

// patternSeed derives the lane's address-stream seed: explicit AddrSeeds
// win; otherwise lanes get distinct fixed seeds (a golden-ratio stride)
// that depend only on the logical lane index — never on the layout — so
// relabeling SPEs cannot perturb the streams.
func patternSeed(sc Scenario, lane int) int64 {
	if len(sc.AddrSeeds) > 0 {
		return sc.AddrSeeds[lane]
	}
	return int64(uint64(lane+1) * 0x9E3779B97F4A7C15)
}

// installPattern wires the resolved phase program onto sys: one region
// allocation (shared or per lane) and one interpreter lane per active
// SPE. It returns the bytes the lanes account for.
func (sc Scenario) installPattern(sys *System) (int64, error) {
	pat := sc.pattern()
	var shared int64
	var err error
	if pat.hasMem() && pat.Shared {
		if shared, err = sys.TryAlloc(pat.Region, 1<<16); err != nil {
			return 0, err
		}
	}
	for i := 0; i < sc.SPEs; i++ {
		l := lane{idx: i, chunk: sc.Chunk, phases: pat.Phases, reps: pat.reps(),
			base: shared, nslots: pat.Region / int64(sc.Chunk), seed: patternSeed(sc, i)}
		if pat.hasMem() && !pat.Shared {
			if l.base, err = sys.TryAlloc(pat.Region, 1<<16); err != nil {
				return 0, err
			}
		}
		if pat.hasRing() {
			// Pull the halo from the left neighbour's receive aperture;
			// push ours into the right neighbour's send aperture. Slots
			// cycle, so every address stays inside the 256 KB local store.
			step := pat.ringStep()
			l.getEA = sys.LSEA(((i-step)%sc.SPEs+sc.SPEs)%sc.SPEs, pairGetBase)
			l.putEA = sys.LSEA((i+step)%sc.SPEs, pairPutBase)
		}
		sys.installStream(l)
	}
	return pat.LaneBytes() * int64(sc.SPEs), nil
}
