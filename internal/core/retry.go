package core

import (
	"errors"
	"fmt"
	"time"

	"cellbe/internal/sim"
)

// TransientError marks a grid-point failure as retryable. The scheduler's
// own classifier treats fault-injected deadlocks as transient; test and
// chaos hooks wrap their injected failures in TransientError to opt into
// the retry path explicitly.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// PoisonError quarantines a grid point that kept failing transiently
// through every allowed attempt: the circuit breaker that stops a bad
// point from burning workers on endless retries. It wraps the final
// attempt's failure and is surfaced in SweepResult.Err (the HTTP layer
// maps it to code "poisoned").
type PoisonError struct {
	Chunk    int
	Seed     int64
	Attempts int
	Last     error
}

func (e *PoisonError) Error() string {
	return fmt.Sprintf("core: grid point chunk=%d seed=%d quarantined after %d failed attempts: %v",
		e.Chunk, e.Seed, e.Attempts, e.Last)
}

func (e *PoisonError) Unwrap() error { return e.Last }

// RetryPolicy is the scheduler's per-point self-healing knob: transient
// failures retry with exponential backoff and deterministic jitter, and a
// point that exhausts MaxAttempts is quarantined as a PoisonError.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per grid point,
	// including the first; <= 1 disables retries (the zero value keeps
	// the scheduler's historical fail-fast behavior).
	MaxAttempts int
	// Sleep replaces the backoff sleep in tests; nil uses time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) enabled() bool { return p.maxAttempts() > 1 }

func (p RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// The retry backoff starts at baseBackoff before the first retry and
// doubles per further retry, clamped to maxBackoff.
const (
	baseBackoff = 10 * time.Millisecond
	maxBackoff  = time.Second
)

// backoff computes the delay before retry number attempt (1-based) of a
// grid point. The exponential base doubles per attempt; the jitter is
// deterministic — a splitmix64 stream keyed on (chunk, seed, attempt) —
// so a rerun of the same sweep backs off identically, which keeps the
// chaos harness's timing-sensitive schedules reproducible.
func backoff(chunk int, seed int64, attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	// Deterministic jitter in [d/2, d): full jitter would allow 0, which
	// defeats the backoff; half-jitter keeps the exponential floor.
	r := splitmix64(uint64(chunk)<<32 ^ uint64(seed) ^ uint64(attempt)*0x9e3779b97f4a7c15)
	frac := float64(r>>11) / float64(1<<53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// splitmix64 is the standard splitmix64 finalizer — the same generator
// family the fault injector uses, duplicated here to keep the packages
// decoupled.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryFaultSeed derives the fault-injector seed for retry number
// attempt of a point whose first attempt ran faultSeed. Attempt 0 keeps
// the original stream; each retry re-rolls it deterministically — the
// model of a transient fault is that trying again meets different
// weather, and determinism keeps resumed runs byte-identical to
// uninterrupted ones (the retry sequence of a deterministic simulation
// is itself deterministic).
func retryFaultSeed(faultSeed int64, attempt int) int64 {
	if attempt == 0 {
		return faultSeed
	}
	s := int64(splitmix64(uint64(faultSeed) + uint64(attempt)))
	if s == 0 {
		s = 1 // 0 is the "derive me" config sentinel; never emit it
	}
	return s
}

// FailureCode classifies a grid point failure for status reporting and
// the HTTP layer: "poisoned" (quarantined by the retry circuit
// breaker), "deadlock" (watchdog), "panic" (recovered process panic) or
// "failed" (everything else). A PoisonError wrapping a deadlock reports
// "poisoned" — the quarantine is the actionable fact.
func FailureCode(err error) string {
	var pe *PoisonError
	if errors.As(err, &pe) {
		return "poisoned"
	}
	var dl *sim.DeadlockError
	if errors.As(err, &dl) {
		return "deadlock"
	}
	var pp *sim.ProcessPanic
	if errors.As(err, &pp) {
		return "panic"
	}
	return "failed"
}

// transientFailure classifies a point failure for the retry policy:
// injected TransientErrors always retry; a watchdog deadlock retries
// only when fault injection is on (a fault-free deadlock is
// deterministic — retrying it would reproduce the identical wedge).
// Panics, validation errors and everything else are permanent.
func transientFailure(err error, faultsEnabled bool) bool {
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var dl *sim.DeadlockError
	if errors.As(err, &dl) {
		return faultsEnabled
	}
	return false
}
