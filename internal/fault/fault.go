// Package fault is a deterministic, seeded fault-injection layer for the
// Cell BE model. It perturbs the simulation the way the measured blade
// misbehaves in bounded ways — MFC commands retried after command-bus
// token denial, XDR banks stalling on refresh collisions, EIB ring
// segments slowing down or dropping out of arbitration, completion
// callbacks arriving late — without ever corrupting data or breaking the
// model's invariants. Faulty runs therefore degrade bandwidth gracefully
// instead of collapsing, which is exactly the regime the paper's
// layout-variance figures (13, 16) probe.
//
// Every decision is drawn from one splitmix64 stream owned by the
// injector. The simulation engine is single-threaded and fires events in
// a deterministic order, so a given (fault config, seed) pair perturbs a
// given scenario identically on every run: faulty runs stay
// byte-reproducible and sweepable, and goldens can be pinned on them.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cellbe/internal/sim"
)

// Default fault magnitudes, in CPU cycles. Rates come from the user; the
// magnitudes are fixed bounded penalties chosen to match the hardware
// mechanism each fault models.
const (
	// DefaultRetryCycles is the base MFC retry backoff after a command-bus
	// token denial (roughly one command-bus round trip). Consecutive
	// denials back off exponentially up to MaxRetryBackoff.
	DefaultRetryCycles sim.Time = 50
	// MaxRetryBackoff caps the exponential retry backoff.
	MaxRetryBackoff sim.Time = 800
	// DefaultStallCycles is an XDR bank busy/refresh-collision stall: the
	// bank is stolen for about one refresh's worth of cycles.
	DefaultStallCycles sim.Time = 180
	// DefaultSlowCycles delays one EIB data transfer's earliest start (a
	// ring-segment re-arbitration glitch).
	DefaultSlowCycles sim.Time = 128
	// DefaultDoneDelayCycles postpones one completion callback (a late
	// acknowledgement on the loaded bus).
	DefaultDoneDelayCycles sim.Time = 64
)

// Config sets the per-event probability of each fault class. All rates
// are in [0,1); zero disables the class. The zero value disables
// injection entirely.
type Config struct {
	// MFCRetryRate is the chance that a bus packet's command-bus token is
	// denied at issue, forcing the MFC to retry with exponential backoff
	// (each retry re-rolls, so a packet can be denied several times).
	MFCRetryRate float64
	// XDRStallRate is the chance that a memory-bank access finds the bank
	// busy (refresh collision, scrub cycle) and must wait an extra
	// DefaultStallCycles with priority over queued accesses.
	XDRStallRate float64
	// EIBSlowRate is the chance that a data transfer's ring grant is
	// delayed by DefaultSlowCycles (segment re-arbitration).
	EIBSlowRate float64
	// EIBOutageRate is the chance that one data ring is excluded from
	// arbitration for a transfer (a ring temporarily out of service); the
	// transfer falls back to the remaining rings.
	EIBOutageRate float64
	// DoneDelayRate is the chance that a bus-packet completion callback is
	// delivered DefaultDoneDelayCycles late.
	DoneDelayRate float64
}

// Enabled reports whether any fault class has a non-zero rate.
func (c Config) Enabled() bool {
	return c.MFCRetryRate > 0 || c.XDRStallRate > 0 || c.EIBSlowRate > 0 ||
		c.EIBOutageRate > 0 || c.DoneDelayRate > 0
}

// specKeys maps -faults spec keys to config fields.
var specKeys = map[string]func(*Config, float64){
	"mfc-retry":  func(c *Config, r float64) { c.MFCRetryRate = r },
	"xdr-stall":  func(c *Config, r float64) { c.XDRStallRate = r },
	"eib-slow":   func(c *Config, r float64) { c.EIBSlowRate = r },
	"eib-outage": func(c *Config, r float64) { c.EIBOutageRate = r },
	"done-delay": func(c *Config, r float64) { c.DoneDelayRate = r },
}

// Keys returns the recognized spec keys, sorted, for usage messages.
func Keys() []string {
	ks := make([]string, 0, len(specKeys))
	for k := range specKeys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ParseSpec parses a command-line fault specification of the form
// "mfc-retry:0.01,xdr-stall:0.05". Unknown keys and rates outside [0,1)
// are errors. The empty string parses to a disabled Config.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, ":")
		if !ok {
			return Config{}, fmt.Errorf("fault: %q: want KEY:RATE", field)
		}
		set, known := specKeys[strings.TrimSpace(key)]
		if !known {
			return Config{}, fmt.Errorf("fault: unknown fault %q (want one of %s)",
				key, strings.Join(Keys(), ", "))
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return Config{}, fmt.Errorf("fault: bad rate in %q: %v", field, err)
		}
		if rate < 0 || rate >= 1 {
			return Config{}, fmt.Errorf("fault: rate %g in %q out of range [0,1)", rate, field)
		}
		set(&cfg, rate)
	}
	return cfg, nil
}

// Stats counts injected faults by class.
type Stats struct {
	MFCRetries int64 // command-bus token denials (a packet may take several)
	XDRStalls  int64 // bank busy/refresh stalls
	EIBSlow    int64 // delayed ring grants
	EIBOutages int64 // per-transfer ring exclusions
	DoneDelays int64 // late completion callbacks
}

// Total returns the number of faults injected across all classes.
func (s Stats) Total() int64 {
	return s.MFCRetries + s.XDRStalls + s.EIBSlow + s.EIBOutages + s.DoneDelays
}

// Injector draws fault decisions from a seeded stream. A nil *Injector is
// valid and injects nothing, so model code calls its methods
// unconditionally. Not safe for concurrent use: like the rest of the
// model it must only be driven from simulation events.
type Injector struct {
	cfg   Config
	state uint64
	stats Stats
}

// New returns an injector for cfg drawing from seed. It returns nil when
// cfg is disabled, keeping the fault-free hot paths branch-cheap.
func New(cfg Config, seed int64) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, state: splitmixSeed(uint64(seed))}
}

// Stats returns the injected-fault counters (zero for nil).
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return i.stats
}

// splitmixSeed hardens trivially related seeds (0, 1, 2...) into
// well-separated stream states.
func splitmixSeed(s uint64) uint64 {
	return splitmix(&s)
}

// splitmix is splitmix64: tiny, fast, and stable across Go releases —
// unlike math/rand, whose stream the standard library does not guarantee.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll draws one uniform [0,1) variate and compares it against rate.
func (i *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	// 53 high bits -> uniform float64 in [0,1).
	v := float64(splitmix(&i.state)>>11) / (1 << 53)
	return v < rate
}

// MFCRetry returns the cycles an MFC bus-packet issue loses to
// command-bus token denial: zero when the token is granted first try,
// otherwise the summed exponential backoff of the denied attempts.
func (i *Injector) MFCRetry() sim.Time {
	if i == nil || i.cfg.MFCRetryRate <= 0 {
		return 0
	}
	var delay sim.Time
	backoff := DefaultRetryCycles
	for i.roll(i.cfg.MFCRetryRate) {
		i.stats.MFCRetries++
		delay += backoff
		if backoff < MaxRetryBackoff {
			backoff *= 2
		}
	}
	return delay
}

// XDRStall returns the extra bank occupancy (with priority over queued
// accesses) charged to this bank access, or zero.
func (i *Injector) XDRStall() sim.Time {
	if i == nil || !i.roll(i.cfg.XDRStallRate) {
		return 0
	}
	i.stats.XDRStalls++
	return DefaultStallCycles
}

// EIBSlow returns the grant delay injected into one data transfer, or
// zero.
func (i *Injector) EIBSlow() sim.Time {
	if i == nil || !i.roll(i.cfg.EIBSlowRate) {
		return 0
	}
	i.stats.EIBSlow++
	return DefaultSlowCycles
}

// EIBOutage returns the index of a ring (in [0,rings)) to exclude from
// arbitration for one transfer, or -1 when all rings are in service.
func (i *Injector) EIBOutage(rings int) int {
	if i == nil || rings <= 1 || !i.roll(i.cfg.EIBOutageRate) {
		return -1
	}
	i.stats.EIBOutages++
	return int(splitmix(&i.state) % uint64(rings))
}

// DoneDelay returns how late one completion callback is delivered, or
// zero.
func (i *Injector) DoneDelay() sim.Time {
	if i == nil || !i.roll(i.cfg.DoneDelayRate) {
		return 0
	}
	i.stats.DoneDelays++
	return DefaultDoneDelayCycles
}
