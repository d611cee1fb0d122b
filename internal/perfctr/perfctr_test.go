package perfctr

import (
	"encoding/json"
	"testing"

	"cellbe/internal/sim"
)

// TestNilSafety pins the one nil-safe reader: a nil Counters block
// rolls up to the zero Rollup.
func TestNilSafety(t *testing.T) {
	var c *Counters
	if got := c.Rollup(); got != (Rollup{}) {
		t.Errorf("nil Counters.Rollup() = %+v, want zero", got)
	}
}

// TestBankRowModel pins the counter-local row semantics: first touch
// opens (and misses), same-row accesses hit, row changes miss, and a
// refresh closes the open row so the next access misses even in-row.
func TestBankRowModel(t *testing.T) {
	var b BankCounters
	b.Access(0)              // open row 0: miss
	b.Access(RowBytes - 64)  // same row: hit
	b.Access(RowBytes)       // row 1: miss
	b.Access(RowBytes + 128) // still row 1: hit
	b.Refresh()              // closes row 1
	b.Access(RowBytes + 256) // row 1 again, but closed: miss
	if b.RowOpens != 3 || b.RowMisses != 3 || b.RowHits != 2 || b.RefreshStalls != 1 {
		t.Errorf("opens=%d misses=%d hits=%d refreshes=%d, want 3/3/2/1",
			b.RowOpens, b.RowMisses, b.RowHits, b.RefreshStalls)
	}
}

// TestQueueHistogramClamp pins the occupancy histogram's bucket edges.
func TestQueueHistogramClamp(t *testing.T) {
	var m MFCCounters
	m.SampleQueue(-5)               // clamps to bucket 0
	m.SampleQueue(0)                // bucket 0
	m.SampleQueue(QueueBuckets - 1) // last bucket, exactly
	m.SampleQueue(1000)             // clamps to last bucket
	if m.Occupancy[0] != 2 {
		t.Errorf("bucket 0 = %d, want 2", m.Occupancy[0])
	}
	if m.Occupancy[QueueBuckets-1] != 2 {
		t.Errorf("last bucket = %d, want 2", m.Occupancy[QueueBuckets-1])
	}
}

// TestRollupAndAdd checks the collapse from the full counter block to
// the flat rollup, and that Add is field-complete (a missed field here
// silently drops a series from every aggregated /metrics view).
func TestRollupAndAdd(t *testing.T) {
	var c Counters
	c.EIB.Commands++
	c.EIB.Local(100)
	c.EIB.Grant(2, 5, 1, 10, 5, 400)
	c.EIB.Denies[2]++
	c.EIB.Abandons[7]++
	c.XDR[0].Access(0)
	c.XDR[0].ReadBytes += 64
	c.XDR[1].Access(0)
	c.XDR[1].WriteBytes += 32
	c.XDR[1].Refresh()
	c.MFC[0].SampleQueue(1)
	c.MFC[3].Retries++
	c.PPE.MissQStalls++
	c.PPE.Fills++
	c.PPE.PrefetchFills++

	r := c.Rollup()
	want := Rollup{
		EIBBytes: 500, EIBGrants: 1, EIBLocal: 1, EIBDenies: 1, EIBAbandons: 1,
		EIBBusyCycles: 10, EIBWaitCycles: 5, EIBCommands: 1,
		XDRBytes:       [NumBanks]uint64{64, 32},
		XDRRowHits:     [NumBanks]uint64{0, 0},
		XDRRowMisses:   [NumBanks]uint64{1, 1},
		XDRRefreshes:   [NumBanks]uint64{0, 1},
		MFCRetries:     1,
		PPEMissQStalls: 1, PPEFills: 1, PPEPrefetchFills: 1,
	}
	want.EIBRampGrants[2] = 1
	want.EIBRampDenies[2] = 1
	want.EIBRampAbandons[7] = 1
	want.EIBRingBusy[1] = 10
	want.MFCOccSamples[0][1] = 1
	if r != want {
		t.Errorf("Rollup() = %+v, want %+v", r, want)
	}
	if r.XDRBytesTotal() != 96 {
		t.Errorf("XDRBytesTotal = %d, want 96", r.XDRBytesTotal())
	}

	var sum Rollup
	sum.Add(r)
	sum.Add(r)
	if sum.EIBBytes != 1000 || sum.XDRBytes[1] != 64 || sum.MFCRetries != 2 || sum.PPEPrefetchFills != 2 {
		t.Errorf("Add not field-complete: %+v", sum)
	}
	if sum.EIBRampGrants[2] != 2 || sum.EIBRingBusy[1] != 20 || sum.MFCOccSamples[0][1] != 2 {
		t.Errorf("Add dropped per-ramp/per-SPE detail: %+v", sum)
	}
}

// TestAddOccupancy pins the time-weighted histogram fold: cycles land in
// the right (spe, depth) cell, depths beyond the last bucket clamp into
// it, and out-of-range SPE indices are ignored.
func TestAddOccupancy(t *testing.T) {
	var r Rollup
	hist := make([]sim.Time, QueueBuckets+3)
	hist[0] = 100
	hist[2] = 40
	hist[QueueBuckets+2] = 7 // deeper than the histogram: clamps to last bucket
	r.AddOccupancy(3, hist)
	r.AddOccupancy(3, hist)
	r.AddOccupancy(-1, hist)      // ignored
	r.AddOccupancy(NumSPEs, hist) // ignored
	if r.MFCOccCycles[3][0] != 200 || r.MFCOccCycles[3][2] != 80 {
		t.Errorf("cycles misfolded: %v", r.MFCOccCycles[3])
	}
	if r.MFCOccCycles[3][QueueBuckets-1] != 14 {
		t.Errorf("deep bucket = %d, want 14 (clamped)", r.MFCOccCycles[3][QueueBuckets-1])
	}
	for spe := range r.MFCOccCycles {
		if spe != 3 {
			for d, v := range r.MFCOccCycles[spe] {
				if v != 0 {
					t.Fatalf("spe %d depth %d unexpectedly %d", spe, d, v)
				}
			}
		}
	}
}

// TestRollupJSONRoundTrip guards the journal wire format: a rollup must
// survive encode/decode unchanged (it rides in PointRecord).
func TestRollupJSONRoundTrip(t *testing.T) {
	r := Rollup{EIBBytes: 7, XDRBytes: [NumBanks]uint64{1, 2}, PPEFills: 3}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Rollup
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("round trip changed rollup: %+v -> %+v", r, back)
	}
}
