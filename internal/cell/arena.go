package cell

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Arena is the one boot path for grid points and coroutine-kernel
// measurements: a pool of dead System carcasses that Boot (a scenario
// point) and New (a bare system) stamp fresh systems onto.
//
// The boot point is the install boundary — cycle 0, before any event
// fires. That is the only instant provably shared by every grid point of
// a sweep: the canonical scenarios randomize the SPE layout per seed, so
// two points' event histories diverge from the very first DMA command and
// no later prefix is common (see DESIGN.md). At cycle 0 the shared state
// is exactly the boot image: all-zero local stores, empty timelines, the
// immutable route/path tables. A carcass therefore lends its
// *allocations*, never mid-run state — its grown timing wheel, EIB
// interval timelines, MFC queues and local stores are pointer-reset
// (stores re-zeroed only over their dirty spans) by init, which rewrites
// every component for any Config. Teardown of a grid point becomes
// Retire: a handful of slice-length resets instead of a garbage
// collection of megabytes.
//
// Exactness is enforced, not assumed: a booted system must be
// observationally identical to New + Scenario.Install whatever the
// carcass ran before, and the differential tests pin byte-identical
// results, stats and perf counters for every scenario kind.
//
// The zero Arena is empty and ready to use; it is safe for concurrent
// use.
type Arena struct {
	mu       sync.Mutex
	pool     []*System
	recycled atomic.Int64
}

// New readies a bare system for cfg: it takes a pooled carcass (or a new
// System when the pool is empty) and initializes it, observationally
// identical to cell.New(cfg); recycled reports which. The caller installs
// its own kernels, runs it and hands it back with Retire once it is dead.
// Like cell.New, it panics on a cfg that fails Config.Validate; the
// carcass goes back to the pool first.
func (a *Arena) New(cfg Config) (sys *System, recycled bool) {
	sys = a.take()
	recycled = sys != nil
	if !recycled {
		sys = &System{}
	}
	defer func() {
		if r := recover(); r != nil {
			if sys.Eng != nil {
				a.Retire(sys) // init re-stamps it whole on the next boot
			}
			panic(r)
		}
	}()
	sys.init(cfg)
	return sys, recycled
}

// Boot readies one grid point: New, then install sc. The returned total
// is the bytes the scenario will move. The system is installed but has
// not run: the caller may attach observers before RunChecked, and hands
// it back with Retire once it is dead. An install error (or panic)
// retires the carcass itself.
func (a *Arena) Boot(cfg Config, sc Scenario) (*System, int64, error) {
	sys, recycled := a.New(cfg)
	installed := false
	defer func() {
		if !installed {
			a.Retire(sys)
		}
	}()
	total, err := sc.Install(sys)
	if err != nil {
		return nil, 0, err
	}
	installed = true
	if recycled {
		a.recycled.Add(1)
	}
	return sys, total, nil
}

// Retire returns a finished (or failed) system to the pool for the next
// Boot to stamp. The caller promises the system is dead: no result
// harvesting, tracing or instrumentation will touch it afterwards.
func (a *Arena) Retire(sys *System) {
	a.mu.Lock()
	a.pool = append(a.pool, sys)
	a.mu.Unlock()
}

// Release empties the pool, returning every carcass's local stores to
// the spe buffer pool. The arena stays usable; the next Boot builds anew.
func (a *Arena) Release() {
	a.mu.Lock()
	pool := a.pool
	a.pool = nil
	a.mu.Unlock()
	for _, sys := range pool {
		sys.Release()
	}
}

// Recycled reports how many successful Boots were stamped onto a pooled
// carcass rather than a new System.
func (a *Arena) Recycled() int64 { return a.recycled.Load() }

func (a *Arena) take() *System {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.pool); n > 0 {
		sys := a.pool[n-1]
		a.pool[n-1] = nil
		a.pool = a.pool[:n-1]
		return sys
	}
	return nil
}

// Snapshot is a grid-point factory captured from an installed, not yet
// run System: the template's scenario and an arena of its own. It is a
// thin shell over Arena for callers that hold a template System.
type Snapshot struct {
	scen  Scenario
	arena Arena
}

// ErrNotSnapshottable is wrapped by Snapshot refusals.
var ErrNotSnapshottable = errors.New("system not at the install boundary")

// Snapshot captures a grid-point factory from s. It must be called after
// Scenario.Install and before the system runs.
func (s *System) Snapshot() (*Snapshot, error) {
	if s.scen.Kind == "" {
		return nil, fmt.Errorf("cell: %w: no scenario installed", ErrNotSnapshottable)
	}
	if s.Eng.Now() != 0 || s.Eng.Fired() != 0 {
		return nil, fmt.Errorf("cell: %w: snapshot must be taken at the install boundary, before the system runs", ErrNotSnapshottable)
	}
	return &Snapshot{scen: s.scen}, nil
}

// CloneFor boots a grid point of the captured scenario at the given
// chunk size on cfg (Arena.Boot). Safe for concurrent use, provided each
// caller passes its own cfg value.
func (sn *Snapshot) CloneFor(cfg Config, chunk int) (*System, int64, error) {
	scen := sn.scen
	scen.Chunk = chunk
	return sn.arena.Boot(cfg, scen)
}

// Retire returns a dead system to the snapshot's arena (Arena.Retire).
func (sn *Snapshot) Retire(sys *System) { sn.arena.Retire(sys) }
