package eib

import (
	"fmt"
	"math/rand"
	"testing"

	"cellbe/internal/fault"
	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
)

// The grant search is checked against oracleEIB, the per-resource
// interval timeline search it replaced: the same call stream, with the
// same fault draws, must give the same end time for every transfer and
// the same counter block after every transfer — ring grants, bytes,
// wait cycles, denies and abandons included.

// grantCase is one configuration the differential tests replay under.
type grantCase struct {
	rings  int      // RingsPerDirection
	gap    sim.Time // RingDeadCycles
	faults bool     // inject grant slowdowns and ring outages
}

func (c grantCase) String() string {
	return fmt.Sprintf("rings=%d/gap=%d/faults=%v", c.rings, c.gap, c.faults)
}

func (c grantCase) config() Config {
	cfg := DefaultConfig()
	cfg.RingsPerDirection = c.rings
	cfg.RingDeadCycles = c.gap
	return cfg
}

// injector returns the case's fault injector; two calls with one seed
// draw the same fault stream.
func (c grantCase) injector(seed int64) *fault.Injector {
	if !c.faults {
		return nil
	}
	return fault.New(fault.Config{EIBSlowRate: 0.05, EIBOutageRate: 0.1}, seed)
}

var grantCases = func() []grantCase {
	var cs []grantCase
	for _, rings := range []int{1, 2} {
		for _, gap := range []sim.Time{0, 64, 37} {
			for _, faults := range []bool{false, true} {
				cs = append(cs, grantCase{rings, gap, faults})
			}
		}
	}
	return cs
}()

// replayAgainstOracle drives calls through bus, which the caller has
// Reset (or built) for cfg, and through a fresh oracle, each with its own
// injector drawn from faultSeed, and fails at the first call whose end
// time or counter block differs. After every call it checks the
// invariant the grant search relies on: on every ring segment, bookings
// of different flows sit at least the switching gap apart.
func replayAgainstOracle(t *testing.T, bus *EIB, c grantCase, faultSeed int64, calls []grantCall) {
	t.Helper()
	cfg := c.config()
	bus.SetFaults(c.injector(faultSeed))
	bus.SetPerf(new(perfctr.EIBCounters))
	o := newOracle(cfg)
	o.faults = c.injector(faultSeed)
	for i, call := range calls {
		got := bus.transfer(call.src, call.dst, call.bytes, call.earliest, call.now)
		want := o.transfer(call.src, call.dst, call.bytes, call.earliest, call.now)
		if got != want || *bus.perf != o.perf {
			t.Fatalf("%v: call %d %+v: end %d, oracle %d\ncounters %+v\noracle   %+v",
				c, i, call, got, want, *bus.perf, o.perf)
		}
		if err := o.gapInvariant(cfg.RingDeadCycles); err != nil {
			t.Fatalf("%v: after call %d %+v: %v", c, i, call, err)
		}
	}
}

// gapInvariant reports a ring segment on which two neighbouring
// reservations of different flows sit closer than gap.
func (o *oracleEIB) gapInvariant(gap sim.Time) error {
	for ri := range o.seg {
		for s := range o.seg[ri] {
			live := o.seg[ri][s].live()
			for k := 1; k < len(live); k++ {
				if p, n := live[k-1], live[k]; p.owner != n.owner && n.s-p.e < gap {
					return fmt.Errorf("ring %d segment %d: %+v and %+v closer than the gap %d", ri, s, p, n, gap)
				}
			}
		}
	}
	return nil
}

// randomCalls draws n transfer calls. The clock only moves forward; the
// ramps come from a few hot ones, so segments and ports are contended,
// with some ramp-local transfers; sizes run from one beat to a 16 KiB
// DMA element, mostly 128-byte packets; earliest is mostly just ahead of
// the clock, sometimes behind it, sometimes far in the future.
func randomCalls(rng *rand.Rand, n int) []grantCall {
	hot := rng.Perm(NumRamps)[:2+rng.Intn(6)]
	ramp := func() RampID {
		if rng.Intn(8) == 0 {
			return RampID(rng.Intn(NumRamps))
		}
		return RampID(hot[rng.Intn(len(hot))])
	}
	calls := make([]grantCall, n)
	var now sim.Time
	for i := range calls {
		if rng.Intn(3) == 0 {
			now += sim.Time(rng.Intn(40))
		}
		c := grantCall{now: now, src: ramp(), dst: ramp(), bytes: 128}
		switch rng.Intn(8) {
		case 0:
			c.bytes = 1 + rng.Intn(64)
		case 1:
			c.bytes = 128 << rng.Intn(8)
		}
		switch r := rng.Intn(50); {
		case r == 0:
			c.earliest = now + 1_000_000 + sim.Time(rng.Intn(1000))
		case r < 4:
			c.earliest = now - sim.Time(rng.Intn(100))
		default:
			c.earliest = now + sim.Time(rng.Intn(300))
		}
		calls[i] = c
	}
	return calls
}

// TestGrantMatchesOracle replays seeded random call streams under every
// case. One EIB per ring count serves all of its streams through Reset,
// as arena carcasses do, while each stream gets a fresh oracle.
func TestGrantMatchesOracle(t *testing.T) {
	streams := 6
	if testing.Short() {
		streams = 2
	}
	buses := map[int]*EIB{}
	for _, c := range grantCases {
		t.Run(c.String(), func(t *testing.T) {
			for seed := int64(1); seed <= int64(streams); seed++ {
				bus := buses[c.rings]
				if bus == nil || !bus.Reset(c.config()) {
					bus = New(sim.NewEngine(), c.config())
					buses[c.rings] = bus
				}
				calls := randomCalls(rand.New(rand.NewSource(seed)), 3000)
				replayAgainstOracle(t, bus, c, seed, calls)
			}
		})
	}
}

// TestGrantStreamsMatchOracle replays the EIBGrant benchmark's streams
// under the default configuration.
func TestGrantStreamsMatchOracle(t *testing.T) {
	bus := New(sim.NewEngine(), DefaultConfig())
	c := grantCase{rings: 2, gap: DefaultConfig().RingDeadCycles}
	for _, s := range grantBenchStreams() {
		bus.Reset(c.config())
		replayAgainstOracle(t, bus, c, 0, s)
	}
}

// FuzzGrant replays arbitrary call streams against the oracle. The first
// byte picks the case; every four bytes after it make one call.
func FuzzGrant(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 10, 2, 1, 0, 10, 1, 2, 3, 4})
	f.Add([]byte{7, 9, 3, 0, 0, 3, 9, 0, 0, 9, 3, 200, 255, 3, 9, 1, 1})
	f.Add([]byte{11, 0, 6, 0, 0, 6, 0, 0, 0, 0, 6, 0, 0, 5, 5, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := grantCases[int(data[0])%len(grantCases)]
		var calls []grantCall
		var now sim.Time
		for i := 1; i+3 < len(data); i += 4 {
			b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
			now += sim.Time(b3 >> 5)
			earliest := now + sim.Time(b2)
			if b3&1 != 0 {
				earliest += 1 << 20
			}
			calls = append(calls, grantCall{
				now:      now,
				earliest: earliest,
				src:      RampID(b0 % NumRamps),
				dst:      RampID(b1 % NumRamps),
				bytes:    1 + int(b3>>1&15)*64,
			})
		}
		bus := New(sim.NewEngine(), c.config())
		replayAgainstOracle(t, bus, c, int64(data[0]), calls)
	})
}

// TestResourceDropsOnlyEndedHoles fills a resource's hole array and
// books once more: the full array drops the holes that ended by now,
// without growing, and keeps the one that ends two cycles later, which
// still takes a one-beat transfer at now.
func TestResourceDropsOnlyEndedHoles(t *testing.T) {
	var r resource
	r.reset()
	r.holes = make([]hole, 0, 8)
	// The first booking leaves the hole before it open to the left; each
	// later one, [10k, 10k+5), leaves [10k-5, 10k) behind it.
	for k := 0; k < 8; k++ {
		r.book(sim.Time(10*k), 5, 0, 0, 0)
	}
	if len(r.holes) != cap(r.holes) {
		t.Fatalf("%d holes in an array of %d, want it full", len(r.holes), cap(r.holes))
	}
	const now = 38 // the holes ending at 0, 10, 20 and 30 have ended
	r.book(80, 5, 0, 0, now)
	if len(r.holes) != 5 || cap(r.holes) != 8 {
		t.Fatalf("%d holes in an array of %d after the drop, want 5 in 8: %+v", len(r.holes), cap(r.holes), r.holes)
	}
	if got := r.fit(now, 2, 0, 0); got != now {
		t.Fatalf("fit at %d, want %d in the hole [35, 40)", got, now)
	}
}
