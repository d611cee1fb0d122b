package cell

import (
	"errors"
	"fmt"
	"sync"

	"cellbe/internal/sim"
)

// Snapshot is a warm-system factory captured from an installed (but not
// yet run) System: the template's configuration and scenario, plus an
// arena of retired system carcasses that clones are stamped from.
//
// The capture point is the install boundary — cycle 0, before any event
// fires. That is the only instant provably shared by every grid point of
// a sweep: the canonical scenarios randomize the SPE layout per seed, so
// two points' event histories diverge from the very first DMA command and
// no later prefix is common (see DESIGN.md). At cycle 0 the shared warm
// state is exactly the boot image: all-zero local stores, empty timelines,
// the immutable route/path tables. Cloning therefore shares the
// *allocations* rather than mid-run state — a retired carcass keeps its
// grown timing wheel, EIB interval timelines, MFC queues and local stores,
// and a clone pointer-resets them (zeroing stores only over their recorded
// dirty spans) instead of cold-booting. Teardown of a grid point becomes
// Retire: a handful of slice-length resets instead of a garbage
// collection of megabytes.
//
// Exactness is enforced, not assumed: a cloned system must be
// observationally identical to cell.New + Scenario.Install, and the
// differential clone-vs-cold tests pin byte-identical sweep results,
// stats and perf counters for every canonical scenario.
type Snapshot struct {
	cfg   Config
	scen  Scenario
	total int64

	mu    sync.Mutex
	arena []*System
}

// ErrNotSnapshottable is wrapped by Snapshot rejections so callers can
// distinguish "this workload cannot use the warm path" (fall back to cold
// boots) from real failures.
var ErrNotSnapshottable = errors.New("scenario not snapshot-capable")

// Snapshottable reports whether the scenario can take the warm path: true
// exactly for the element-DMA pair, couples and cycle kinds, except a pair
// whose partner sits on the second chip (remote-chip state is not
// recycled, so Snapshot would refuse it). Every data-moving kind runs on
// the same DMA interpreter, but clone-vs-cold identity is proven (by the
// differential tests in snapshot_test.go) only for these; DMA lists, mem,
// wedge and the workload library stay cold path until a change brings
// their differentials. Callers decide with it before booting a template,
// so a cold-path job never boots a template it cannot use.
func (sc Scenario) Snapshottable() bool {
	switch sc.Kind {
	case "pair", "couples", "cycle":
		return !sc.List && !sc.figure.Remote
	}
	return false
}

// Snapshot captures a warm-system factory from s. It must be called after
// Scenario.Install and before the system runs, and only succeeds for a
// Snapshottable scenario; remote-chip state, which pins buffers outside
// the recycled carcass, is refused too.
func (s *System) Snapshot() (*Snapshot, error) {
	if s.scen.Kind == "" {
		return nil, fmt.Errorf("cell: %w: no scenario installed", ErrNotSnapshottable)
	}
	if !s.scen.Snapshottable() {
		return nil, fmt.Errorf("cell: %w: %q is cold path only", ErrNotSnapshottable, s.scen.Kind)
	}
	if s.Eng.Now() != 0 || s.Eng.Fired() != 0 {
		return nil, fmt.Errorf("cell: %w: snapshot must be taken at the install boundary, before the system runs", ErrNotSnapshottable)
	}
	// Snapshottable is the decision; the census of the installed kernels
	// asserts that it held.
	procs := 0
	s.Eng.VisitLiveProcesses(func(*sim.Process) bool { procs++; return true })
	if procs > 0 || len(s.streams) == 0 {
		return nil, fmt.Errorf("cell: %w: %q runs %d coroutine kernels", ErrNotSnapshottable, s.scen.Kind, procs)
	}
	if s.rem != nil {
		return nil, fmt.Errorf("cell: %w: remote-chip state is not recycled", ErrNotSnapshottable)
	}
	return &Snapshot{cfg: s.cfg.Clone(), scen: s.scen, total: 2 * s.scen.Volume * int64(len(s.streams))}, nil
}

// Scenario returns the captured scenario template.
func (sn *Snapshot) Scenario() Scenario { return sn.scen }

// Config returns a private copy of the captured configuration, ready to
// vary per grid point (layout, fault seed) before CloneFor.
func (sn *Snapshot) Config() Config { return sn.cfg.Clone() }

// Clone stamps a run-ready replica of the snapshot's own grid point. The
// returned total is the bytes the scenario will move, as Install reported
// for the template.
func (sn *Snapshot) Clone() (*System, int64, error) {
	return sn.CloneFor(sn.cfg.Clone(), sn.scen.Chunk)
}

// CloneFor forks a variant grid point from the warm ancestor: the
// captured scenario at the given chunk size, on the given configuration
// (typically Config() with a different layout). The system is stamped
// from a retired arena carcass when one is available and cold-booted
// otherwise; either way it is ready to RunChecked. Safe for concurrent
// use — sweep workers clone in parallel — provided each caller passes its
// own cfg value.
func (sn *Snapshot) CloneFor(cfg Config, chunk int) (*System, int64, error) {
	scen := sn.scen
	scen.Chunk = chunk
	if err := scen.Validate(); err != nil {
		return nil, 0, err
	}
	sys := sn.take()
	if sys == nil {
		sys = &System{}
	}
	sys.init(cfg)
	total, err := scen.Install(sys)
	if err != nil {
		// An install error leaves a half-wired system; recycle the
		// carcass rather than leak it — init fully re-stamps it.
		sn.Retire(sys)
		return nil, 0, err
	}
	return sys, total, nil
}

// Retire returns a finished (or failed) system to the arena for the next
// clone to stamp from. The caller promises the system is dead: no result
// harvesting, tracing or instrumentation will touch it afterwards. Do not
// retire a system that was handed to an Instrument hook which retained
// it.
func (sn *Snapshot) Retire(sys *System) {
	sn.mu.Lock()
	sn.arena = append(sn.arena, sys)
	sn.mu.Unlock()
}

// ArenaLen reports how many retired carcasses are currently pooled
// (observability for tests and metrics).
func (sn *Snapshot) ArenaLen() int {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return len(sn.arena)
}

func (sn *Snapshot) take() *System {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if n := len(sn.arena); n > 0 {
		sys := sn.arena[n-1]
		sn.arena[n-1] = nil
		sn.arena = sn.arena[:n-1]
		return sys
	}
	return nil
}
