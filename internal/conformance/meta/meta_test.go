package meta

import (
	"math"
	"math/rand"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/fault"
)

// cases returns how many random cases each invariant samples: enough to
// cover every scenario kind, fewer under -short.
func cases(t *testing.T) int {
	if testing.Short() {
		return 6
	}
	return 14
}

// mustRun runs a case and fails the test on any simulation error, after
// shrinking the case to the simplest one that still errors.
func mustRun(t *testing.T, c Case) Outcome {
	t.Helper()
	o, err := Run(c)
	if err != nil {
		min := Shrink(c, func(v Case) bool { _, e := Run(v); return e != nil })
		_, minErr := Run(min)
		t.Fatalf("case failed to run: %v\n  case:     %v\n  shrunk:   %v\n  shrunk error: %v", err, c, min, minErr)
	}
	return o
}

// failPair reports a violated pairwise relation, shrinking the case with
// the supplied predicate first.
func failPair(t *testing.T, name string, c Case, fails func(Case) bool, detail string) {
	t.Helper()
	min := Shrink(c, fails)
	t.Errorf("%s violated: %s\n  case:   %v\n  shrunk: %v", name, detail, c, min)
}

// TestRelabelInvariance: bandwidth must not depend on where the *idle*
// SPEs sit. Two layouts that place the active SPEs identically and only
// permute the rest must produce cycle-identical runs.
func TestRelabelInvariance(t *testing.T) {
	rnd := rand.New(rand.NewSource(101))
	fails := func(c Case) bool {
		a, err1 := Run(c)
		b, err2 := Run(relabelIdle(c))
		return err1 != nil || err2 != nil || a.Cycles != b.Cycles
	}
	tested := 0
	for i := 0; tested < cases(t); i++ {
		c := Generate(rnd)
		if len(UsedSPEs(c.Scenario)) > cell.NumSPEs-2 {
			continue // need at least two idle SPEs to swap
		}
		tested++
		a := mustRun(t, c)
		b := mustRun(t, relabelIdle(c))
		if a.Cycles != b.Cycles {
			failPair(t, "relabel invariance", c, fails,
				"permuting idle SPEs changed cycles")
			return
		}
	}
}

// relabelIdle swaps the physical slots of the first two idle logical
// SPEs, leaving every active SPE's placement untouched.
func relabelIdle(c Case) Case {
	used := UsedSPEs(c.Scenario)
	first := used[len(used)-1] + 1
	layout := c.Layout
	if layout == nil {
		layout = cell.RandomLayout(0)
	}
	v := c
	v.Layout = append([]int(nil), layout...)
	v.Layout[first], v.Layout[first+1] = v.Layout[first+1], v.Layout[first]
	return v
}

// TestClockLinearity: all model timing is expressed in cycles, so
// doubling the reporting clock must leave the cycle count bit-identical
// and scale GB/s by exactly two.
func TestClockLinearity(t *testing.T) {
	rnd := rand.New(rand.NewSource(202))
	for i := 0; i < cases(t); i++ {
		c := Generate(rnd)
		c.ClockGHz = 2.1
		double := c
		double.ClockGHz = 4.2
		a := mustRun(t, c)
		b := mustRun(t, double)
		if a.Cycles != b.Cycles {
			failPair(t, "clock linearity", c, func(v Case) bool {
				v.ClockGHz = 2.1
				w := v
				w.ClockGHz = 4.2
				x, err1 := Run(v)
				y, err2 := Run(w)
				return err1 != nil || err2 != nil || x.Cycles != y.Cycles
			}, "changing the clock changed the cycle count")
			return
		}
		if math.Abs(b.GBps-2*a.GBps) > 1e-9*a.GBps {
			t.Errorf("clock linearity violated: 2.1 GHz -> %.6f GB/s but 4.2 GHz -> %.6f GB/s (want exactly 2x)\n  case: %v",
				a.GBps, b.GBps, c)
			return
		}
	}
}

// TestChunkMonotonicity: for a memory stream, doubling the DMA element
// size (fewer, larger transfers; same bytes) must never reduce bandwidth
// beyond tolerance — the setup-cost physics behind every figure's rising
// edge.
func TestChunkMonotonicity(t *testing.T) {
	const tol = 0.05
	rnd := rand.New(rand.NewSource(303))
	pow2 := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	fails := func(c Case) bool {
		a, err1 := Run(c)
		b, err2 := Run(doubleChunk(c))
		return err1 != nil || err2 != nil || b.GBps < a.GBps*(1-tol)
	}
	for i := 0; i < cases(t); i++ {
		c := Generate(rnd)
		c.Scenario.Kind = "mem"
		c.Scenario.SPEs = 1 + rnd.Intn(4)
		c.Scenario.Op = []string{"get", "put"}[rnd.Intn(2)]
		c.Scenario.List = false
		c.Scenario.Ring = 0 // a drawn qcd case may carry a ring offset mem rejects
		c.Scenario.Chunk = pow2[rnd.Intn(len(pow2))]
		c.Scenario.Volume = 16384 * int64(8+rnd.Intn(17)) // multiple of both chunks
		a := mustRun(t, c)
		b := mustRun(t, doubleChunk(c))
		if b.GBps < a.GBps*(1-tol) {
			failPair(t, "chunk monotonicity", c, fails,
				"doubling the element size lost more than 5% bandwidth")
			return
		}
	}
}

func doubleChunk(c Case) Case {
	v := c
	v.Scenario.Chunk = c.Scenario.Chunk * 2
	return v
}

// TestFaultMonotonicity: fault injection delays work and must never make
// a run faster beyond the reordering tolerance.
func TestFaultMonotonicity(t *testing.T) {
	const tol = 0.02
	rnd := rand.New(rand.NewSource(404))
	fails := func(c Case) bool {
		clean := c
		clean.Faults = fault.Config{}
		a, err1 := Run(clean)
		b, err2 := Run(c)
		return err1 != nil || err2 != nil || b.GBps > a.GBps*(1+tol)
	}
	for i := 0; i < cases(t); i++ {
		c := Generate(rnd)
		c.Faults = GenerateFaults(rnd)
		clean := c
		clean.Faults = fault.Config{}
		a := mustRun(t, clean)
		b := mustRun(t, c)
		if b.GBps > a.GBps*(1+tol) {
			failPair(t, "fault monotonicity", c, fails,
				"injecting faults increased bandwidth")
			return
		}
	}
}

// TestConservation: every generated case — including faulty ones — must
// run to completion with the MFC teardown audit proving bytes requested
// equal bytes delivered (Run calls RunChecked, which ends in Verify).
func TestConservation(t *testing.T) {
	rnd := rand.New(rand.NewSource(505))
	for i := 0; i < cases(t); i++ {
		c := Generate(rnd)
		if i%2 == 1 {
			c.Faults = GenerateFaults(rnd)
		}
		o := mustRun(t, c)
		if o.Cycles <= 0 || o.Bytes <= 0 {
			t.Errorf("conservation run degenerate: cycles=%d bytes=%d\n  case: %v", o.Cycles, o.Bytes, c)
		}
		if o.GBps <= 0 || o.GBps > 250 {
			t.Errorf("bandwidth %f GB/s outside physical range\n  case: %v", o.GBps, c)
		}
	}
}

// TestListNeverSlower: grouping the same volume into DMA lists must never
// be materially slower than issuing DMA-elem commands — the paper's "use
// lists for small elements" rule as an inequality. Scoped to unsaturated
// scenarios (at most 4 concurrent bidirectional flows): under EIB
// saturation the elem/list ordering is contention luck, and the paper
// itself measures lists *slower* there (Figure 13's 60% vs 70%).
func TestListNeverSlower(t *testing.T) {
	const tol = 0.10
	rnd := rand.New(rand.NewSource(606))
	fails := func(c Case) bool {
		listed := c
		listed.Scenario.List = true
		a, err1 := Run(c)
		b, err2 := Run(listed)
		return err1 != nil || err2 != nil || b.GBps < a.GBps*(1-tol)
	}
	tested := 0
	for i := 0; tested < cases(t); i++ {
		c := Generate(rnd)
		if c.Scenario.Kind == "mem" && c.Scenario.Op == "copy" {
			continue // no list variant
		}
		if patternKind(c.Scenario.Kind) {
			continue // the pattern interpreter has no DMA-list variant
		}
		// Stay below ring saturation: every active SPE of a cycle or couple
		// runs a GET and a PUT flow, and the EIB fits four concurrent
		// transfers — so at most a 2-SPE cycle or 2 couples.
		if c.Scenario.Kind == "cycle" && c.Scenario.SPEs > 2 {
			c.Scenario.SPEs = 2
		}
		if c.Scenario.Kind == "couples" && c.Scenario.SPEs > 4 {
			c.Scenario.SPEs = 4
		}
		// The rule is about steady state: the list kernel double-buffers in
		// a smaller aperture than elem's eight slots, so a run of only a
		// few elements measures ramp-up, not the discipline.
		if c.Scenario.Volume < int64(c.Scenario.Chunk)*32 {
			c.Scenario.Volume = int64(c.Scenario.Chunk) * 32
		}
		tested++
		c.Scenario.List = false
		listed := c
		listed.Scenario.List = true
		a := mustRun(t, c)
		b := mustRun(t, listed)
		if b.GBps < a.GBps*(1-tol) {
			failPair(t, "list never slower", c, fails,
				"the DMA-list variant lost more than 10% against DMA-elem")
			return
		}
	}
}

// TestVolumeScaling: doubling the per-SPE volume must roughly double the
// cycle count — sublinear would mean the simulator invents bandwidth at
// scale, superlinear that steady state degrades with run length.
func TestVolumeScaling(t *testing.T) {
	rnd := rand.New(rand.NewSource(707))
	fails := func(c Case) bool {
		bigger := c
		bigger.Scenario.Volume = 2 * c.Scenario.Volume
		a, err1 := Run(c)
		b, err2 := Run(bigger)
		ratio := float64(b.Cycles) / float64(a.Cycles)
		return err1 != nil || err2 != nil || ratio < 1.4 || ratio > 2.6
	}
	tested := 0
	for i := 0; tested < cases(t); i++ {
		c := Generate(rnd)
		// Scope: linearity in volume is only a law when the run's XDR
		// footprint does not change shape with the volume. Workloads whose
		// regions scale with the volume AND stream both directions at once
		// (mem copy, stream, qcd's spinor field) hit bank-alignment
		// resonances: doubling the volume moves region bases across the
		// 3-in-10 XDR bank map, and measured ratios legitimately swing from
		// 1.2x to 3.2x at specific (SPEs, chunk) shapes. The LS-only kinds
		// (pair/couples/cycle), one-directional mem, and the fixed-region
		// workloads (gups' shared table, md's slab) are free of that and
		// must scale linearly.
		if c.Scenario.Kind == "qcd" || c.Scenario.Kind == "stream" ||
			(c.Scenario.Kind == "mem" && c.Scenario.Op == "copy") {
			continue
		}
		tested++
		// Start from enough elements that startup cost cannot dominate
		// the ratio. The pattern kinds split their volume into per-rep
		// phases with fixed halo and barrier overhead, so they converge
		// to linear much more slowly than the single-stream kernels.
		minElems := int64(16)
		if patternKind(c.Scenario.Kind) {
			minElems = 64
		}
		if c.Scenario.Volume/int64(c.Scenario.Chunk) < minElems {
			c.Scenario.Volume = int64(c.Scenario.Chunk) * minElems
		}
		bigger := c
		bigger.Scenario.Volume = 2 * c.Scenario.Volume
		a := mustRun(t, c)
		b := mustRun(t, bigger)
		ratio := float64(b.Cycles) / float64(a.Cycles)
		if ratio < 1.4 || ratio > 2.6 {
			failPair(t, "volume scaling", c, fails,
				"doubling the volume did not roughly double the cycles")
			return
		}
	}
}

// TestGUPSSeedAssignmentInvariance: GUPS aggregate bandwidth is a
// property of the *set* of per-SPE address streams, not of which SPE runs
// which stream — all lanes hash the same shared table with statistically
// identical streams, so permuting the AddrSeeds assignment across SPEs
// must leave bandwidth within a small tolerance. (Not bit-identical: the
// lanes sit at different EIB ramps, so a permutation reshuffles
// addresses across ramp positions; 5% bounds the contention luck.) A
// violation would mean a lane's identity leaked into its address stream —
// exactly the bug the layout-independent lane seeding exists to prevent.
func TestGUPSSeedAssignmentInvariance(t *testing.T) {
	const tol = 0.05
	rnd := rand.New(rand.NewSource(909))
	fails := func(c Case) bool {
		p := c
		p.Scenario.AddrSeeds = reverseSeeds(c.Scenario.AddrSeeds)
		a, err1 := Run(c)
		b, err2 := Run(p)
		return err1 != nil || err2 != nil || math.Abs(b.GBps-a.GBps) > a.GBps*tol
	}
	for i := 0; i < cases(t); i++ {
		spes := 2 + rnd.Intn(7)
		chunk := gupsChunks[rnd.Intn(len(gupsChunks))]
		seeds := make([]int64, spes)
		for j := range seeds {
			seeds[j] = 1 + rnd.Int63n(1<<30)
		}
		c := Case{
			Scenario: cell.Scenario{
				Kind: "gups", SPEs: spes, Chunk: chunk,
				// Enough elements per lane that stream statistics, not
				// per-lane luck, set the aggregate number.
				Volume:    int64(chunk) * 256,
				Op:        []string{"both", "get", "put"}[rnd.Intn(3)],
				AddrSeeds: seeds,
			},
			Layout: cell.RandomLayout(rnd.Int63n(1 << 30)),
		}
		perm := c
		perm.Scenario.AddrSeeds = append([]int64(nil), seeds...)
		rnd.Shuffle(spes, func(x, y int) {
			s := perm.Scenario.AddrSeeds
			s[x], s[y] = s[y], s[x]
		})
		a := mustRun(t, c)
		b := mustRun(t, perm)
		if math.Abs(b.GBps-a.GBps) > a.GBps*tol {
			failPair(t, "gups seed-assignment invariance", c, fails,
				"permuting the address-stream seed assignment moved bandwidth beyond 5%")
			return
		}
	}
}

// reverseSeeds is the deterministic permutation the shrinker predicate
// uses (shrinking needs a fixed permutation, not the sampled shuffle).
func reverseSeeds(s []int64) []int64 {
	out := make([]int64, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// TestShrink pins the shrinker itself: it must return a strictly simpler
// case that still satisfies the predicate, and must terminate on a
// predicate that always fails.
func TestShrink(t *testing.T) {
	rnd := rand.New(rand.NewSource(808))
	c := Generate(rnd)
	c.Faults = GenerateFaults(rnd)
	min := Shrink(c, func(Case) bool { return true })
	if min.Layout != nil || min.Faults.Enabled() || min.Scenario.List || min.Scenario.Ring != 0 || min.Scenario.AddrSeeds != nil {
		t.Errorf("always-failing predicate did not shrink to the simplest case: %v", min)
	}
	if want := maxChunkFor(min.Scenario.Kind); min.Scenario.Chunk != want {
		t.Errorf("shrinker left chunk at %d, want %d", min.Scenario.Chunk, want)
	}
	same := Shrink(c, func(v Case) bool { return v.Scenario.Volume == c.Scenario.Volume })
	if same.Scenario.Volume != c.Scenario.Volume {
		t.Errorf("shrinker returned a case that no longer fails the predicate")
	}
}

// TestCaseString: a reported case names every knob a reproduction needs.
func TestCaseString(t *testing.T) {
	c := Case{
		Scenario: cell.Scenario{Kind: "qcd", SPEs: 4, Chunk: 1040, Volume: 8320, Ring: 2, AddrSeeds: []int64{5, 6, 7, 8}},
		Layout:   []int{3, 1, 0, 2, 4, 5, 6, 7},
		ClockGHz: 3.2,
		Faults:   fault.Config{XDRStallRate: 0.5},
	}
	want := "kind=qcd spes=4 chunk=1040 volume=8320 op=\"\" list=false ring=2 seeds=[5 6 7 8] layout=[3 1 0 2 4 5 6 7] clock=3.2 faults={MFCRetryRate:0 XDRStallRate:0.5 EIBSlowRate:0 EIBOutageRate:0 DoneDelayRate:0}"
	if got := c.String(); got != want {
		t.Errorf("Case.String:\n got %s\nwant %s", got, want)
	}
}

// TestShrinkKeepsWhatFails walks the shrinker through the steps a
// generated case rarely reaches: a ring offset and pinned address seeds
// that must survive because the predicate needs them, an SPE count cut
// that would strand them, and the GUPS chunk cap.
func TestShrinkKeepsWhatFails(t *testing.T) {
	c := Case{
		Scenario: cell.Scenario{Kind: "qcd", SPEs: 8, Chunk: 48, Volume: 48 * 40, Ring: 7,
			AddrSeeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}},
		Layout: cell.RandomLayout(9),
		Faults: fault.Config{EIBSlowRate: 0.01},
	}
	needs := func(v Case) bool { return v.Scenario.Ring != 0 && len(v.Scenario.AddrSeeds) == v.Scenario.SPEs }
	min := Shrink(c, needs)
	sc := min.Scenario
	if !needs(min) || min.Layout != nil || min.Faults.Enabled() || sc.SPEs != 8 || sc.Chunk != 16384 || sc.Volume/int64(sc.Chunk) >= 16 {
		t.Errorf("shrunk to %v, want ring 7 and 8 seeds kept, everything else simplest", min)
	}
	// Cutting SPEs drops the seeds of the SPEs it removes and a ring the
	// remaining ones cannot span.
	fewer := Shrink(c, func(v Case) bool { return len(v.Scenario.AddrSeeds) == v.Scenario.SPEs && v.Scenario.SPEs > 2 })
	if fewer.Scenario.SPEs != 3 || len(fewer.Scenario.AddrSeeds) != 3 || fewer.Scenario.Ring != 0 {
		t.Errorf("shrunk to %v, want 3 SPEs with their 3 seeds and no ring", fewer)
	}
	gups := Case{Scenario: cell.Scenario{Kind: "gups", SPEs: 2, Chunk: 8, Volume: 8 * 16, Op: "get"}}
	if got := Shrink(gups, func(Case) bool { return true }).Scenario; got.Chunk != 128 || got.Volume != 128*8 {
		t.Errorf("gups shrunk to chunk %d volume %d, want the 128-byte cap at half the elements", got.Chunk, got.Volume)
	}
}

// TestRunReportsFailures: a case that cannot install and a case that
// deadlocks both come back as errors, not panics, and shrink as such.
func TestRunReportsFailures(t *testing.T) {
	bad := Case{Scenario: cell.Scenario{Kind: "pair", SPEs: 2, Chunk: 100, Volume: 1600}}
	if _, err := Run(bad); err == nil {
		t.Error("a 100-byte chunk installed")
	}
	wedge := Case{Scenario: cell.Scenario{Kind: "wedge", SPEs: 2, Chunk: 128, Volume: 128}, Layout: cell.RandomLayout(4)}
	if _, err := Run(wedge); err == nil {
		t.Fatal("the wedge scenario ran to completion")
	}
	if min := Shrink(wedge, func(v Case) bool { _, err := Run(v); return err != nil }); min.Layout != nil {
		t.Errorf("failing wedge shrunk to %v, want the identity layout", min)
	}
}
