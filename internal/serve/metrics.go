package serve

import (
	"fmt"
	"net/http"
	"strings"

	"cellbe/internal/perfctr"
)

// handleMetrics exposes the service's observability counters in
// Prometheus text exposition format: scheduler depth, result-cache
// stats, journal health and the perf-counter rollups — the cheap
// always-on tier, aggregated across every simulated point, plus a
// per-job breakdown for the jobs still tracked. Everything here is a
// snapshot of counters the scheduler maintains anyway; scraping costs
// no simulation work.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	jobs, points := s.sched.Depth()
	gauge("cellserve_jobs_active", "Unfinished jobs admitted to the scheduler.", jobs)
	gauge("cellserve_points_pending", "Grid points admitted but not yet delivered or skipped.", points)

	cs := s.sched.CacheStats()
	gauge("cellserve_cache_entries", "Grid points held in the result cache.", cs.Entries)
	gauge("cellserve_cache_capacity", "Result cache capacity in grid points.", cs.Capacity)
	counter("cellserve_cache_hits_total", "Result cache hits.", cs.Hits)
	counter("cellserve_cache_misses_total", "Result cache misses.", cs.Misses)
	counter("cellserve_cache_evictions_total", "Result cache LRU evictions.", cs.Evictions)
	counter("cellserve_simulations_total", "Grid points actually simulated (cache hits excluded).", cs.Simulations)
	counter("cellserve_warm_points_total", "Grid points booted onto a recycled arena carcass instead of a new System.", s.sched.WarmPoints())

	if s.opts.Journal != nil {
		h := s.opts.Journal.Health()
		counter("cellserve_journal_appends_total", "Journal records accepted since open.", h.Appends)
		counter("cellserve_journal_syncs_total", "Journal fsync batches since open.", h.Syncs)
		gauge("cellserve_journal_lag", "Journal records accepted but not yet fsynced.", h.Lag)
		degraded := 0
		if h.LastError != "" {
			degraded = 1
		}
		gauge("cellserve_journal_degraded", "1 when the last journal append failed (readiness is down).", degraded)
	}

	writePerf(&b, "cellserve_perf", "", s.sched.PerfTotals())
	for _, j := range s.sched.Jobs() {
		writePerf(&b, "cellserve_job_perf", fmt.Sprintf("job=%q", j.ID), j.Perf())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}

// writePerf renders one perf-counter rollup as a family of counter
// series under prefix. extra is an optional label pair (`job="job-1"`)
// added to every series; the TYPE headers are emitted only for the
// unlabeled scheduler totals, so per-job series extend those families.
func writePerf(b *strings.Builder, prefix, extra string, ru perfctr.Rollup) {
	series := func(name, labels string, v uint64) {
		switch {
		case labels == "" && extra == "":
			fmt.Fprintf(b, "%s_%s %d\n", prefix, name, v)
		case labels == "":
			fmt.Fprintf(b, "%s_%s{%s} %d\n", prefix, name, extra, v)
		case extra == "":
			fmt.Fprintf(b, "%s_%s{%s} %d\n", prefix, name, labels, v)
		default:
			fmt.Fprintf(b, "%s_%s{%s,%s} %d\n", prefix, name, labels, extra, v)
		}
	}
	emit := func(name string, v uint64) {
		if extra == "" {
			fmt.Fprintf(b, "# TYPE %s_%s counter\n", prefix, name)
		}
		series(name, "", v)
	}
	emit("eib_bytes_total", ru.EIBBytes)
	emit("eib_grants_total", ru.EIBGrants)
	emit("eib_local_grants_total", ru.EIBLocal)
	emit("eib_denies_total", ru.EIBDenies)
	emit("eib_abandons_total", ru.EIBAbandons)
	emit("eib_busy_cycles_total", ru.EIBBusyCycles)
	emit("eib_wait_cycles_total", ru.EIBWaitCycles)
	emit("eib_commands_total", ru.EIBCommands)
	for i := range ru.XDRBytes {
		bankLabel := fmt.Sprintf("bank=\"%d\"", i)
		if i == 0 && extra == "" {
			for _, name := range []string{"xdr_bytes_total", "xdr_row_hits_total", "xdr_row_misses_total", "xdr_refreshes_total"} {
				fmt.Fprintf(b, "# TYPE %s_%s counter\n", prefix, name)
			}
		}
		series("xdr_bytes_total", bankLabel, ru.XDRBytes[i])
		series("xdr_row_hits_total", bankLabel, ru.XDRRowHits[i])
		series("xdr_row_misses_total", bankLabel, ru.XDRRowMisses[i])
		series("xdr_refreshes_total", bankLabel, ru.XDRRefreshes[i])
	}
	// Per-ramp and per-ring EIB detail. Every ramp and ring is emitted
	// (idle ones as zero) so dashboards get stable series.
	for i := range ru.EIBRampGrants {
		rampLabel := fmt.Sprintf("ramp=\"%d\"", i)
		if i == 0 && extra == "" {
			for _, name := range []string{"eib_ramp_grants_total", "eib_ramp_denies_total", "eib_ramp_abandons_total"} {
				fmt.Fprintf(b, "# TYPE %s_%s counter\n", prefix, name)
			}
		}
		series("eib_ramp_grants_total", rampLabel, ru.EIBRampGrants[i])
		series("eib_ramp_denies_total", rampLabel, ru.EIBRampDenies[i])
		series("eib_ramp_abandons_total", rampLabel, ru.EIBRampAbandons[i])
	}
	for i := range ru.EIBRingBusy {
		if i == 0 && extra == "" {
			fmt.Fprintf(b, "# TYPE %s_eib_ring_busy_cycles_total counter\n", prefix)
		}
		series("eib_ring_busy_cycles_total", fmt.Sprintf("ring=\"%d\"", i), ru.EIBRingBusy[i])
	}
	// Bus packets delayed by command-bus denials, not the denials.
	emit("mfc_retries_total", ru.MFCRetries)
	// Per-SPE MFC queue-occupancy histograms: enqueue-time depth samples
	// and the time-weighted cycles-at-depth view. Only touched buckets are
	// emitted — 2 x 8 x 17 all-zero series would drown the scrape.
	occTyped := false
	for spe := range ru.MFCOccSamples {
		for d := range ru.MFCOccSamples[spe] {
			samples, cycles := ru.MFCOccSamples[spe][d], ru.MFCOccCycles[spe][d]
			if samples == 0 && cycles == 0 {
				continue
			}
			if !occTyped && extra == "" {
				fmt.Fprintf(b, "# TYPE %s_mfc_occupancy_samples_total counter\n", prefix)
				fmt.Fprintf(b, "# TYPE %s_mfc_occupancy_cycles_total counter\n", prefix)
			}
			occTyped = true
			label := fmt.Sprintf("spe=\"%d\",depth=\"%d\"", spe, d)
			if samples > 0 {
				series("mfc_occupancy_samples_total", label, samples)
			}
			if cycles > 0 {
				series("mfc_occupancy_cycles_total", label, cycles)
			}
		}
	}
	emit("ppe_missq_stalls_total", ru.PPEMissQStalls)
	emit("ppe_fills_total", ru.PPEFills)
	emit("ppe_prefetch_fills_total", ru.PPEPrefetchFills)
}
