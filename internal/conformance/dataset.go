package conformance

import (
	"fmt"
	"sync"

	"cellbe/internal/cell"
	"cellbe/internal/core"
)

// Dataset lazily runs and caches the measurement probes claims draw from.
// Each probe is computed at most once per Dataset, on first use, so the
// cost of an evaluation is exactly the probes the selected claims need —
// and claim order (or test shuffling) cannot change any result, because
// every probe builds its own systems from fixed seeds.
type Dataset struct {
	params core.Params

	mu      sync.Mutex
	entries map[string]*datasetEntry
}

type datasetEntry struct {
	once sync.Once
	res  *core.Result
	err  error
}

// QuickParams returns the evaluation parameters of the conformance suite:
// the experiments' quick-run volume (512 KB per SPE reaches steady state;
// see the calibration tests) across 3 layout seeds — or 2 in the short CI
// subset, where wall-clock is budgeted under `-race`.
func QuickParams(short bool) core.Params {
	p := core.DefaultParams()
	p.Runs = 3
	if short {
		p.Runs = 2
	}
	p.BytesPerSPE = 512 << 10
	p.PPEBytes = 1 << 20
	return p
}

// NewDataset returns an empty dataset evaluating probes at params.
func NewDataset(params core.Params) *Dataset {
	return &Dataset{params: params, entries: make(map[string]*datasetEntry)}
}

// Result runs (or returns the cached result of) the named probe.
func (d *Dataset) Result(name string) (*core.Result, error) {
	run, ok := probes[name]
	if !ok {
		return nil, fmt.Errorf("conformance: unknown probe %q", name)
	}
	d.mu.Lock()
	e := d.entries[name]
	if e == nil {
		e = &datasetEntry{}
		d.entries[name] = e
	}
	d.mu.Unlock()
	e.once.Do(func() { e.res, e.err = run(d.params) })
	return e.res, e.err
}

// ProbeNames returns every registered probe (for coverage checks).
func ProbeNames() []string {
	var names []string
	for n := range probes {
		names = append(names, n)
	}
	return names
}

// probes are the named measurement functions: each an experiment
// restricted to the grid points the claims actually reference. A probe
// receives the dataset's parameters by value and narrows them first.
var probes = map[string]func(core.Params) (*core.Result, error){
	// The three PPE figures are layout-independent and deterministic, so
	// one run suffices regardless of the dataset's Runs.
	"ppe-l1": func(p core.Params) (*core.Result, error) {
		p.Runs = 1
		return core.PPEBandwidth(p, core.LevelL1)
	},
	// L2 and memory traversals simulate every element access, so these two
	// probes restrict the access-width axis to the points the claims cite
	// (1-byte sweeps over megabyte buffers dominate the suite otherwise).
	"ppe-l2": func(p core.Params) (*core.Result, error) {
		p.Runs = 1
		p.Elems = []int{1, 16}
		return core.PPEBandwidth(p, core.LevelL2)
	},
	"ppe-mem": func(p core.Params) (*core.Result, error) {
		p.Runs = 1
		p.Elems = []int{16}
		return core.PPEBandwidth(p, core.LevelMem)
	},
	"spe-ls": func(p core.Params) (*core.Result, error) {
		p.Runs = 1
		return core.SPELocalStore(p)
	},
	// Figure 8, restricted to the element sizes and SPE counts the claims
	// cite.
	"spe-mem-get": func(p core.Params) (*core.Result, error) {
		p.Chunks = []int{128, 2048, 16384}
		p.SPESweep = []int{1, 2, 4, 8}
		return core.SPEMemory(p, core.DMAGet, false)
	},
	"spe-mem-put": func(p core.Params) (*core.Result, error) {
		p.Chunks = []int{16384}
		p.SPESweep = []int{1}
		return core.SPEMemory(p, core.DMAPut, false)
	},
	"spe-mem-copy": func(p core.Params) (*core.Result, error) {
		p.Chunks = []int{16384}
		p.SPESweep = []int{1}
		return core.SPEMemory(p, core.DMACopy, false)
	},
	"spe-mem-get-list": func(p core.Params) (*core.Result, error) {
		p.Chunks = []int{128, 16384}
		p.SPESweep = []int{1}
		return core.SPEMemory(p, core.DMAGet, true)
	},
	// Figure 10: fully delayed ("all") against sync-every-request.
	"pair-sync": func(p core.Params) (*core.Result, error) {
		p.Syncs = []int{1, 0}
		p.Chunks = []int{128, 2048, 16384}
		return core.SPEPairSync(p)
	},
	"pair-distance": core.SPEPairDistance,
	// Figures 12/13 and 15/16.
	"couples-elem": func(p core.Params) (*core.Result, error) {
		p.Chunks = []int{128, 16384}
		p.SPESweep = []int{2, 4, 8}
		return core.SPECouples(p, false)
	},
	"couples-list": func(p core.Params) (*core.Result, error) {
		p.Chunks = []int{128, 16384}
		p.SPESweep = []int{2, 4, 8}
		return core.SPECouples(p, true)
	},
	"cycle-elem": func(p core.Params) (*core.Result, error) {
		p.Chunks = []int{16384}
		p.SPESweep = []int{2, 4, 8}
		return core.SPECycle(p, false)
	},
	"cycle-list": func(p core.Params) (*core.Result, error) {
		p.Chunks = []int{16384}
		p.SPESweep = []int{2, 4, 8}
		return core.SPECycle(p, true)
	},
	// Layout-placement spread needs more samples than the mean claims: 8
	// layouts, as the paper's 10 repeated runs.
	"couples-spread": func(p core.Params) (*core.Result, error) {
		p.Runs = 8
		p.Chunks = []int{16384}
		p.SPESweep = []int{8}
		return core.SPECouples(p, false)
	},
	"cycle-spread": func(p core.Params) (*core.Result, error) {
		p.Runs = 8
		p.Chunks = []int{16384}
		p.SPESweep = []int{8}
		return core.SPECycle(p, false)
	},
	// §1/§5 streaming pipelines.
	"streaming": core.Streaming,
	// The MIC bank ceiling: 4 SPEs streaming 16 KB GETs with pages pinned
	// to the MIC-local bank, whose 16.8 GB/s rate then caps the aggregate,
	// versus pages interleaved over both XDR banks.
	"mem-bank": func(p core.Params) (*core.Result, error) {
		return configProbe(p, "mem-bank", "mem", 4, func(cfg *cell.Config, on bool) string {
			cfg.Mem.Interleave = on
			if on {
				return "interleaved"
			}
			return "single bank"
		})
	},
	// The remaining §5 ablations: each toggles one config knob and keeps
	// everything else at the default.
	"mfc-window": func(p core.Params) (*core.Result, error) {
		return configProbe(p, "mfc-window", "mem", 1, func(cfg *cell.Config, on bool) string {
			if on {
				cfg.MFC.Window = 64
				return "window 64"
			}
			cfg.MFC.Window = 16
			return "window 16"
		})
	},
	// The arbitration gap only bites on placements whose paths
	// collide: average enough layouts (and a long enough stream) for
	// the colliding ones to dominate the comparison, as the ablation
	// benchmark does.
	"eib-arb": func(p core.Params) (*core.Result, error) {
		p.Runs = 6
		p.BytesPerSPE = 1 << 20
		return configProbe(p, "eib-arb", "couples", 8, func(cfg *cell.Config, on bool) string {
			if on {
				return "real arbiter"
			}
			cfg.EIB.RingDeadCycles = 0
			return "ideal arbiter"
		})
	},
	"ppe-prefetch": ppePrefetchProbe,
	// The workload library (README "Scenarios"): GUPS, QCD halo, MD and
	// STREAM presets of the pattern interpreter, restricted to the grid
	// points the "Workload library" claims reference. GUPS probes scale
	// the volume down — its elements are 8..128 B gathers, so the same
	// bytes cost orders of magnitude more commands than a DMA stream.
	"gups-chunk": func(p core.Params) (*core.Result, error) {
		p.BytesPerSPE = 32 << 10
		return workloadProbe(p, "gups-chunk", "GUPS table updates vs element size (8 SPEs)",
			[]workloadVariant{{label: "8 SPE update",
				spec: core.SweepSpec{Scenario: "gups", SPEs: 8, Op: "both", Chunks: []int{8, 16, 32, 64, 128}}}})
	},
	"gups-bank": func(p core.Params) (*core.Result, error) {
		p.BytesPerSPE = 128 << 10
		single := baseConfig(p)
		single.Mem.Interleave = false
		spec := core.SweepSpec{Scenario: "gups", SPEs: 8, Op: "both", Chunks: []int{64}}
		return workloadProbe(p, "gups-bank", "GUPS updates: interleaved banks vs a single bank",
			[]workloadVariant{
				{label: "interleaved", spec: spec},
				{label: "single bank", spec: spec, base: &single},
			})
	},
	// The qcd halo phase in isolation: an explicit ring-only phase program
	// (no memory streams to mask the EIB), run over a pinned census of
	// layouts — the identity plus eight scrambled placements — because the
	// locality ordering lives *across layouts*: a placement that folds the
	// logical ring onto colliding ring segments halves the halo rate.
	"qcd-ring": func(p core.Params) (*core.Result, error) {
		ring := &cell.Pattern{Phases: []cell.Phase{{Access: "ring", Bytes: 256 << 10}}}
		return workloadProbe(p, "qcd-ring", "QCD halo ring in isolation, across SPE placements",
			[]workloadVariant{{label: "halo ring", seeds: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8},
				spec: core.SweepSpec{Scenario: "pattern", SPEs: 8, Pattern: ring, Chunks: []int{1024}}}})
	},
	"qcd-chunk": func(p core.Params) (*core.Result, error) {
		return workloadProbe(p, "qcd-chunk", "QCD sweep vs spinor element size (8 SPEs)",
			[]workloadVariant{{label: "8 SPE halo",
				spec: core.SweepSpec{Scenario: "qcd", SPEs: 8, Chunks: []int{256, 1024, 4096, 16384}}}})
	},
	// Placement spread wants more layout samples than the mean claims, as
	// the Figure 13/16 spread probes do.
	"qcd-place": func(p core.Params) (*core.Result, error) {
		p.Runs = 8
		return workloadProbe(p, "qcd-place", "QCD halo bandwidth across SPE placements",
			[]workloadVariant{{label: "8 SPE halo",
				spec: core.SweepSpec{Scenario: "qcd", SPEs: 8, Chunks: []int{4096}}}})
	},
	"md-chunk": func(p core.Params) (*core.Result, error) {
		return workloadProbe(p, "md-chunk", "MD pair gather/scatter vs element size (8 SPEs)",
			[]workloadVariant{{label: "8 SPE pairs",
				spec: core.SweepSpec{Scenario: "md", SPEs: 8, Chunks: []int{128, 512, 4096}}}})
	},
	"stream-ops": func(p core.Params) (*core.Result, error) {
		var variants []workloadVariant
		for _, op := range []string{"copy", "scale", "add", "triad"} {
			variants = append(variants, workloadVariant{label: op,
				spec: core.SweepSpec{Scenario: "stream", SPEs: 8, Op: op, Chunks: []int{16384}}})
		}
		return workloadProbe(p, "stream-ops", "STREAM scenario kernels at 16 KB blocks (8 SPEs)", variants)
	},
	"stream-chunk": func(p core.Params) (*core.Result, error) {
		return workloadProbe(p, "stream-chunk", "STREAM triad vs block size (8 SPEs)",
			[]workloadVariant{{label: "triad",
				spec: core.SweepSpec{Scenario: "stream", SPEs: 8, Op: "triad", Chunks: []int{512, 2048, 16384}}}})
	},
}

// workloadVariant is one curve of a sweep-backed probe: a sweep spec
// (seeds and volume filled in from the dataset parameters unless pinned)
// plus an optional config override.
type workloadVariant struct {
	label string
	seeds []int64
	spec  core.SweepSpec
	base  *cell.Config
}

// workloadProbe folds sweeps into labeled curves over the element-size
// axis, one curve per variant, from one core.Params.Curves call.
func workloadProbe(p core.Params, name, title string, variants []workloadVariant) (*core.Result, error) {
	labels := make([]string, len(variants))
	specs := make([]core.SweepSpec, len(variants))
	for i, v := range variants {
		labels[i] = v.label
		specs[i] = v.spec
		specs[i].Seeds = v.seeds
		specs[i].Base = v.base
	}
	curves, err := p.Curves(labels, specs...)
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: %w", name, err)
	}
	return &core.Result{Name: name, Title: title, XLabel: "element size (bytes)", YLabel: "GB/s", Curves: curves}, nil
}

// baseConfig returns a copy of the machine the dataset evaluates on, for
// a probe variant to change one knob of.
func baseConfig(p core.Params) cell.Config {
	if p.Base != nil {
		return p.Base.Clone()
	}
	return cell.DefaultConfig()
}

// configProbe runs one sweep scenario at 16 KB chunks twice — once with a
// config knob off, once on — and returns the pair as two curves named by
// the mutator.
func configProbe(p core.Params, name, scenario string, spes int, mutate func(cfg *cell.Config, on bool) string) (*core.Result, error) {
	var variants []workloadVariant
	for _, on := range []bool{false, true} {
		base := baseConfig(p)
		label := mutate(&base, on)
		variants = append(variants, workloadVariant{label: label, base: &base,
			spec: core.SweepSpec{Scenario: scenario, SPEs: spes, Op: "get", Chunks: []int{16384}}})
	}
	return workloadProbe(p, name, fmt.Sprintf("%s scenario with a §5 design rule off and on", scenario), variants)
}

// ppePrefetchProbe isolates the L2 stream prefetcher behind Figure 6's
// read equality: the PPE main-memory load curve with the prefetcher
// disabled and at the default depth. Curves are relabeled "prefetch off"
// and "prefetch on"; the x axis is the access width.
func ppePrefetchProbe(p core.Params) (*core.Result, error) {
	res := &core.Result{
		Name:   "ppe-prefetch",
		Title:  "PPE main-memory loads without and with the L2 prefetcher",
		XLabel: "element size (bytes)",
		YLabel: "GB/s",
	}
	p.Runs = 1
	p.Elems = []int{8}
	for _, on := range []bool{false, true} {
		cfg := baseConfig(p)
		label := "prefetch on"
		if !on {
			cfg.PPE.PrefetchDepth = 0
			label = "prefetch off"
		}
		params := p
		params.Base = &cfg
		mem, err := core.PPEBandwidth(params, core.LevelMem)
		if err != nil {
			return nil, err
		}
		c := mem.Curve("load 1T")
		if c == nil {
			return nil, fmt.Errorf("conformance: ppe-mem probe has no load 1T curve")
		}
		res.Curves = append(res.Curves, core.Curve{Label: label, Points: c.Points})
	}
	return res, nil
}
