package trace

import (
	"cellbe/internal/sim"
)

// Timeseries is the sampler's output: one row per sampling tick, one
// column per registered metric, with the sample cycle as the first column.
type Timeseries struct {
	Columns []string // "cycle", then metric names in registration order
	Rows    [][]float64
}

// Column returns the values of the named column, or nil if absent.
func (ts *Timeseries) Column(name string) []float64 {
	col := -1
	for i, c := range ts.Columns {
		if c == name {
			col = i
			break
		}
	}
	if col < 0 {
		return nil
	}
	out := make([]float64, len(ts.Rows))
	for i, row := range ts.Rows {
		out[i] = row[col]
	}
	return out
}

// metric is one sampled column: a gauge samples fn directly; a rate
// samples (fn() - previous fn()) * scale, i.e. the per-interval delta of a
// monotonic counter rescaled to a rate (bytes -> GB/s, busy cycles ->
// utilization).
type metric struct {
	name  string
	fn    func() float64
	rate  bool
	scale float64
	prev  float64
}

// Sampler periodically samples registered metrics on the simulation
// engine. It schedules itself with daemon events, so an armed sampler
// never keeps a finished simulation alive or extends its final cycle
// count: once only daemon events remain, the run ends and the tail
// interval simply goes unsampled.
type Sampler struct {
	eng      *sim.Engine
	interval sim.Time
	metrics  []metric
	ts       Timeseries
}

// NewSampler returns a sampler ticking every interval cycles. Panics on a
// non-positive interval.
func NewSampler(eng *sim.Engine, interval sim.Time) *Sampler {
	if interval <= 0 {
		panic("trace: sampler interval must be positive")
	}
	return &Sampler{eng: eng, interval: interval}
}

// Gauge registers an instantaneous metric column (queue depths, token
// levels): each row records fn() at the sample cycle.
func (s *Sampler) Gauge(name string, fn func() float64) {
	s.metrics = append(s.metrics, metric{name: name, fn: fn})
}

// Rate registers a delta metric column over a monotonic counter: each row
// records (fn() - fn() at the previous tick) * scale. With
// scale = clockGHz / interval, a byte counter becomes GB/s over the
// interval; with scale = 1 / interval, a busy-cycle counter becomes
// utilization in [0, 1].
func (s *Sampler) Rate(name string, scale float64, fn func() float64) {
	s.metrics = append(s.metrics, metric{name: name, fn: fn, rate: true, scale: scale})
}

// Start arms the sampler: the first sample fires one interval from now.
// Call after all columns are registered (the column set is frozen here).
func (s *Sampler) Start() {
	s.ts.Columns = make([]string, 0, len(s.metrics)+1)
	s.ts.Columns = append(s.ts.Columns, "cycle")
	for i := range s.metrics {
		s.ts.Columns = append(s.ts.Columns, s.metrics[i].name)
		s.metrics[i].prev = s.metrics[i].fn()
	}
	s.eng.EveryDaemon(s.interval, s.tick)
}

// tick records one row; EveryDaemon reschedules while real work remains.
func (s *Sampler) tick() {
	row := make([]float64, 0, len(s.metrics)+1)
	row = append(row, float64(s.eng.Now()))
	for i := range s.metrics {
		m := &s.metrics[i]
		v := m.fn()
		if m.rate {
			row = append(row, (v-m.prev)*m.scale)
			m.prev = v
		} else {
			row = append(row, v)
		}
	}
	s.ts.Rows = append(s.ts.Rows, row)
}

// Timeseries returns the rows collected so far.
func (s *Sampler) Timeseries() *Timeseries { return &s.ts }
