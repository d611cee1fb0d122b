// Package ledger writes BENCH_eib.json, the repository's performance
// ledger, for the benchmarks of every package: one row per benchmark,
// each stamped with the machine it was measured on, and timed rows all
// summarized the same way.
package ledger

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"

	"cellbe/internal/stats"
)

var mu sync.Mutex // serializes Write calls within one process

// Timed returns the row fields for repeated timings of one quantity,
// named by unit (say "ns/transfer"): the median with its quartiles, the
// fastest run as a secondary figure, and the number of runs. A row
// recorded this way moves with the typical run, not with one lucky or
// unlucky one.
func Timed(unit string, samples []float64) map[string]any {
	return map[string]any{
		unit + " median": stats.Percentile(samples, 50),
		unit + " q1":     stats.Percentile(samples, 25),
		unit + " q3":     stats.Percentile(samples, 75),
		unit + " min":    stats.Percentile(samples, 0),
		"runs":           len(samples),
	}
}

// Write merges row into the ledger file at path under name, replacing
// any earlier row of that name. Rows hold numbers and, for machine
// context, strings: every row records goarch, go (the Go version) and
// gomaxprocs, which a row that pins GOMAXPROCS for its measurement sets
// itself. An unparsable ledger is replaced.
func Write(path, name string, row map[string]any) error {
	row["goarch"], row["go"] = runtime.GOARCH, runtime.Version()
	if _, ok := row["gomaxprocs"]; !ok {
		row["gomaxprocs"] = runtime.GOMAXPROCS(0)
	}
	mu.Lock()
	defer mu.Unlock()
	all := map[string]map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if json.Unmarshal(data, &all) != nil {
			all = map[string]map[string]any{}
		}
	}
	all[name] = row
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
