package serve_test

import (
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cellbe/internal/core"
	"cellbe/internal/perfctr"
	"cellbe/internal/serve"
)

// TestMetricsEndpoint runs a sweep to completion and scrapes /metrics:
// the exposition must parse as Prometheus text (TYPE headers, one value
// per series), report the cache activity the sweep caused, and carry
// non-zero perf-counter rollups both as scheduler totals and under the
// job's label.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t,
		core.SchedOptions{Workers: 4, CachePoints: 64},
		serve.Options{})

	done := decodeBody[waitResponse](t, postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody()))
	if len(done.Results) != 4 || done.Status.Failed != 0 {
		t.Fatalf("sweep: %+v", done.Status)
	}

	resp := mustGet(t, ts.URL+"/metrics")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every non-comment line must be "name[{labels}] value".
	lineRe := regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? -?[0-9.e+-]+$`)
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRe.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
		name, val, _ := strings.Cut(line, " ")
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparsable value on %q: %v", line, err)
		}
		values[name] = f
	}

	want := map[string]float64{
		"cellserve_jobs_active":           0,
		"cellserve_simulations_total":     4,
		"cellserve_cache_entries":         4,
		"cellserve_perf_eib_grants_total": float64(sumTransfers(done)),
	}
	for name, v := range want {
		got, ok := values[name]
		if !ok {
			t.Errorf("missing series %s", name)
		} else if got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if values["cellserve_perf_eib_bytes_total"] <= 0 {
		t.Error("scheduler perf rollup saw no EIB bytes")
	}

	// The finished job is still tracked, so its labeled rollup must
	// match the scheduler totals (it is the only job).
	jobSeries := `cellserve_job_perf_eib_bytes_total{job="` + done.Job + `"}`
	if got, ok := values[jobSeries]; !ok {
		t.Errorf("missing per-job series %s", jobSeries)
	} else if got != values["cellserve_perf_eib_bytes_total"] {
		t.Errorf("job rollup %v != scheduler total %v", got, values["cellserve_perf_eib_bytes_total"])
	}

	// Bank-labeled series must exist for both banks (zero-valued here:
	// the cycle scenario never touches main memory).
	for _, s := range []string{`cellserve_perf_xdr_bytes_total{bank="0"}`, `cellserve_perf_xdr_bytes_total{bank="1"}`} {
		if _, ok := values[s]; !ok {
			t.Errorf("missing series %s", s)
		}
	}

	if !strings.Contains(body, "# TYPE cellserve_perf_eib_bytes_total counter") {
		t.Error("missing TYPE header for perf counter family")
	}

	// Per-ramp EIB detail: a stable series per ramp, whose grant counts
	// sum back to the scheduler-level grant total.
	var rampSum float64
	for i := 0; i < perfctr.NumRamps; i++ {
		s := fmt.Sprintf(`cellserve_perf_eib_ramp_grants_total{ramp="%d"}`, i)
		v, ok := values[s]
		if !ok {
			t.Errorf("missing series %s", s)
		}
		rampSum += v
	}
	if rampSum != values["cellserve_perf_eib_grants_total"] {
		t.Errorf("per-ramp grants sum to %v, scheduler total %v", rampSum, values["cellserve_perf_eib_grants_total"])
	}
	var ringBusy float64
	for i := 0; i < perfctr.NumRings; i++ {
		s := fmt.Sprintf(`cellserve_perf_eib_ring_busy_cycles_total{ring="%d"}`, i)
		v, ok := values[s]
		if !ok {
			t.Errorf("missing series %s", s)
		}
		ringBusy += v
	}
	if ringBusy <= 0 {
		t.Error("ring busy cycles all zero after a saturating sweep")
	}

	// Per-SPE MFC occupancy histograms: both the enqueue-sample and the
	// time-weighted cycle views must be present (touched buckets only)
	// and positive for the active SPEs.
	occRe := regexp.MustCompile(`^cellserve_perf_mfc_occupancy_(samples|cycles)_total\{spe="(\d+)",depth="(\d+)"\}$`)
	var occSamples, occCycles float64
	for name, v := range values {
		m := occRe.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		if m[1] == "samples" {
			occSamples += v
		} else {
			occCycles += v
		}
	}
	if occSamples <= 0 {
		t.Error("no MFC occupancy sample series emitted")
	}
	if occCycles <= 0 {
		t.Error("no time-weighted MFC occupancy series emitted")
	}

	// Only boots onto a recycled carcass count. The scheduler's first
	// boot always builds a new System, and its 4 workers build at most 4,
	// so 0 to 3 of the 4 simulated points were recycled.
	if got := values["cellserve_warm_points_total"]; got < 0 || got > 3 {
		t.Errorf("cellserve_warm_points_total = %v, want 0..3", got)
	}
}

// sumTransfers totals the transfer counts of a finished sweep — with no
// ramp-local transfers in the cycle scenario, every one is a ring grant.
func sumTransfers(w waitResponse) int64 {
	var n int64
	for _, p := range w.Results {
		n += p.Transfers
	}
	return n
}

// TestMetricsCachedResubmission: a fully cache-served job still rolls
// its memoized per-point rollups into the scheduler totals — cached
// points carry counters from the run that populated the cache.
func TestMetricsCachedResubmission(t *testing.T) {
	ts, _ := newTestServer(t,
		core.SchedOptions{Workers: 4, CachePoints: 64},
		serve.Options{})

	first := decodeBody[waitResponse](t, postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody()))
	second := decodeBody[waitResponse](t, postJSON(t, ts.URL+"/v1/sweeps?wait=1", sweepBody()))
	if first.Status.Failed != 0 || second.Status.Failed != 0 {
		t.Fatalf("sweeps failed: %+v / %+v", first.Status, second.Status)
	}

	resp := mustGet(t, ts.URL+"/metrics")
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	total := 2 * sumTransfers(first)
	wantLine := "cellserve_perf_eib_grants_total " + strconv.FormatInt(total, 10)
	if !strings.Contains(string(raw), wantLine) {
		t.Errorf("metrics missing %q (cached points must contribute their memoized rollups)", wantLine)
	}
}
