// Package perfctr simulates the Cell blade's hardware performance
// counters: plain monotonic uint64s incremented at the model's decision
// points (EIB arbitration, XDR bank access, MFC queue pumps, PPE cache
// fills). It is the model's only counter store: every component counts
// into a block that is always attached, and each component's Stats()
// is a view computed from it. A cell.System owns one Counters block and
// points its components into it; a component built on its own points
// at a private block.
//
// Counting is the cheap always-on tier: an increment costs a few
// nanoseconds and never allocates, so every sweep point rolls its block
// into SweepResult. Full Perfetto traces (internal/trace) remain the
// opt-in deep tier. Windowed views of the block (bandwidth, command
// rate and ring utilization over time) come from one place, the
// trace.Sampler that cell.System.StartMetrics arms on daemon events, so
// sampling never extends a run.
package perfctr

import "cellbe/internal/sim"

// Model dimensions mirrored from internal/cell's hardware constants.
// They are repeated here (rather than imported) so the counter block
// stays a leaf package importable from anywhere, including
// internal/journal.
const (
	NumRamps = 12 // EIB on/off ramps (8 SPE + PPE, MIC, 2x BIF/IOIF)
	NumRings = 4  // EIB data rings
	NumSPEs  = 8
	NumBanks = 2 // XDR memory banks

	// RowBytes is the counter model's DRAM row granularity: two
	// accesses RowBytes apart open different rows. It is a
	// counter-only notion — the timing model (internal/xdr) tracks
	// service slots, not rows — chosen to match a 2 KiB XDR page.
	RowBytes = 2048

	// QueueBuckets is the MFC occupancy histogram size: queue depths
	// 0..QueueBuckets-1, with the last bucket absorbing anything
	// deeper. Sized for the hardware's 16-entry MFC queue plus a
	// bucket for depth 16 itself.
	QueueBuckets = 17
)

// EIBCounters counts element-interconnect-bus activity. The per-ramp
// and per-ring arrays cover ring transfers only; ramp-local transfers
// are counted in LocalGrants and Bytes.
type EIBCounters struct {
	Grants        [NumRamps]uint64 // transfers granted a ring slot, by source ramp
	Denies        [NumRamps]uint64 // candidate rings denied mid-search (another ring already grants earlier)
	Abandons      [NumRamps]uint64 // candidate rings abandoned to an injected ring outage
	RampBytes     [NumRamps]uint64 // payload bytes sourced, by source ramp
	RampRecvBytes [NumRamps]uint64 // payload bytes sunk, by destination ramp
	RingBusy      [NumRings]uint64 // cycles each ring spent carrying data
	RingGrants    [NumRings]uint64 // transfers each ring carried
	RingBytes     [NumRings]uint64 // payload bytes each ring carried

	LocalGrants uint64 // same-ramp transfers that never touched a ring
	WaitCycles  uint64 // total cycles transfers waited for a ring slot
	Bytes       uint64 // payload bytes moved (local + ring)
	Commands    uint64 // command-phase slots consumed on the address bus
}

// Local counts a same-ramp transfer of n bytes (no ring involved).
func (c *EIBCounters) Local(n int) {
	c.LocalGrants++
	c.Bytes += uint64(n)
}

// Grant counts a ring grant from source ramp src to dst on ring r: busy
// cycles of ring occupancy, wait cycles of arbitration delay, n payload
// bytes.
func (c *EIBCounters) Grant(src, dst, r int, busy, wait uint64, n int) {
	c.Grants[src]++
	c.RampBytes[src] += uint64(n)
	c.RampRecvBytes[dst] += uint64(n)
	c.RingBusy[r] += busy
	c.RingGrants[r]++
	c.RingBytes[r] += uint64(n)
	c.WaitCycles += wait
	c.Bytes += uint64(n)
}

// GrantTotal returns ring grants summed over ramps (excludes LocalGrants).
func (c *EIBCounters) GrantTotal() uint64 {
	var t uint64
	for _, g := range c.Grants {
		t += g
	}
	return t
}

// BankCounters counts one XDR bank's row behaviour, refresh stalls and
// traffic. The row model is counter-local: the bank remembers the last
// row touched, and an access to a different row is a miss that opens
// it. Every access is one row hit or one row miss.
type BankCounters struct {
	RowOpens      uint64 // rows activated (first access + every miss)
	RowHits       uint64 // accesses landing in the open row
	RowMisses     uint64 // accesses forcing a row change
	RefreshStalls uint64 // refresh windows that closed the open row
	ReadBytes     uint64 // bytes of completed reads
	WriteBytes    uint64 // bytes of completed writes

	lastRow int64
	opened  bool
}

// Access runs the row model for an access at bank-relative address addr.
func (c *BankCounters) Access(addr int64) {
	row := addr / RowBytes
	switch {
	case !c.opened:
		c.opened = true
		c.lastRow = row
		c.RowOpens++
		c.RowMisses++
	case row == c.lastRow:
		c.RowHits++
	default:
		c.lastRow = row
		c.RowOpens++
		c.RowMisses++
	}
}

// Refresh counts a refresh window, which closes the open row: the next
// access misses regardless of its address, as on hardware.
func (c *BankCounters) Refresh() {
	c.RefreshStalls++
	c.opened = false
}

// Bytes returns the bank's total traffic.
func (c *BankCounters) Bytes() uint64 { return c.ReadBytes + c.WriteBytes }

// MFCCounters counts one SPE's memory-flow-controller activity.
type MFCCounters struct {
	Occupancy [QueueBuckets]uint64 // enqueue-time queue depth histogram
	// Retries counts bus packets whose issue was delayed by command-bus
	// token denials (fault injection). A packet denied several times
	// counts once; fault.Stats.MFCRetries counts the denials themselves.
	Retries      uint64
	Commands     uint64 // commands accepted into the SPU or proxy queue
	Packets      uint64 // bus packets issued
	Bytes        uint64 // payload bytes issued
	ListElements uint64 // DMA-list elements started
	Atomics      uint64 // getllar/putllc commands
}

// SampleQueue records the queue depth observed at an enqueue.
func (c *MFCCounters) SampleQueue(depth int) {
	if depth < 0 {
		depth = 0
	}
	if depth >= QueueBuckets {
		depth = QueueBuckets - 1
	}
	c.Occupancy[depth]++
}

// PPECounters counts PPE-side cache and store-path events.
type PPECounters struct {
	Loads         uint64 // elements loaded
	Stores        uint64 // elements stored
	L1Misses      uint64 // loads that missed L1
	MissQStalls   uint64 // demand loads that stalled on the L2 miss queue
	Fills         uint64 // L2 miss fills issued to memory (demand and prefetch)
	PrefetchFills uint64 // the subset of fills issued by the prefetch engine
	RFOs          uint64 // read-for-ownership fetches for stores
	Writebacks    uint64 // dirty L2 victims written back
	StoreChunks   uint64 // gathered store chunks drained to L2
}

// Counters is one system's full counter block. The zero value is ready
// to use; cell.System points its components into the block it owns.
type Counters struct {
	EIB EIBCounters
	XDR [NumBanks]BankCounters
	MFC [NumSPEs]MFCCounters
	PPE PPECounters
}

// Rollup is the flat, JSON-serializable summary of a Counters block:
// the per-ramp/per-ring/per-bucket detail collapsed to totals that can
// ride in a SweepResult, a journal point record, or a /metrics gauge.
type Rollup struct {
	EIBBytes      uint64 `json:"eib_bytes,omitempty"`
	EIBGrants     uint64 `json:"eib_grants,omitempty"`
	EIBLocal      uint64 `json:"eib_local,omitempty"`
	EIBDenies     uint64 `json:"eib_denies,omitempty"`
	EIBAbandons   uint64 `json:"eib_abandons,omitempty"`
	EIBBusyCycles uint64 `json:"eib_busy_cycles,omitempty"`
	EIBWaitCycles uint64 `json:"eib_wait_cycles,omitempty"`
	EIBCommands   uint64 `json:"eib_commands,omitempty"`

	// Per-ramp and per-ring EIB detail, preserved from the counter block
	// rather than collapsed into the totals above: grants/denies/abandons
	// by source ramp, busy cycles by data ring. The totals remain the sums
	// of these, so existing consumers are unchanged.
	EIBRampGrants   [NumRamps]uint64 `json:"eib_ramp_grants"`
	EIBRampDenies   [NumRamps]uint64 `json:"eib_ramp_denies"`
	EIBRampAbandons [NumRamps]uint64 `json:"eib_ramp_abandons"`
	EIBRingBusy     [NumRings]uint64 `json:"eib_ring_busy"`

	XDRBytes     [NumBanks]uint64 `json:"xdr_bytes"`
	XDRRowHits   [NumBanks]uint64 `json:"xdr_row_hits"`
	XDRRowMisses [NumBanks]uint64 `json:"xdr_row_misses"`
	XDRRefreshes [NumBanks]uint64 `json:"xdr_refreshes"`

	// MFCRetries is the summed MFCCounters.Retries: bus packets delayed
	// by command-bus denials, not the denials themselves.
	MFCRetries uint64 `json:"mfc_retries,omitempty"`
	// MFCOccSamples is each SPE's enqueue-time queue-depth histogram (the
	// counter block's Occupancy). MFCOccCycles is the time-weighted
	// variant the MFC itself accumulates — simulated cycles spent at each
	// SPU-queue depth — folded in at harvest (see AddOccupancy); depths
	// beyond the last bucket clamp into it.
	MFCOccSamples [NumSPEs][QueueBuckets]uint64 `json:"mfc_occ_samples"`
	MFCOccCycles  [NumSPEs][QueueBuckets]uint64 `json:"mfc_occ_cycles"`

	PPEMissQStalls   uint64 `json:"ppe_missq_stalls,omitempty"`
	PPEFills         uint64 `json:"ppe_fills,omitempty"`
	PPEPrefetchFills uint64 `json:"ppe_prefetch_fills,omitempty"`
}

// Rollup collapses the counter block to its serializable summary. A nil
// receiver returns the zero Rollup.
func (c *Counters) Rollup() Rollup {
	var r Rollup
	if c == nil {
		return r
	}
	r.EIBBytes = c.EIB.Bytes
	r.EIBGrants = c.EIB.GrantTotal()
	r.EIBLocal = c.EIB.LocalGrants
	r.EIBWaitCycles = c.EIB.WaitCycles
	r.EIBCommands = c.EIB.Commands
	r.EIBRampGrants = c.EIB.Grants
	r.EIBRampDenies = c.EIB.Denies
	r.EIBRampAbandons = c.EIB.Abandons
	r.EIBRingBusy = c.EIB.RingBusy
	for _, d := range c.EIB.Denies {
		r.EIBDenies += d
	}
	for _, a := range c.EIB.Abandons {
		r.EIBAbandons += a
	}
	for _, b := range c.EIB.RingBusy {
		r.EIBBusyCycles += b
	}
	for i := range c.XDR {
		r.XDRBytes[i] = c.XDR[i].Bytes()
		r.XDRRowHits[i] = c.XDR[i].RowHits
		r.XDRRowMisses[i] = c.XDR[i].RowMisses
		r.XDRRefreshes[i] = c.XDR[i].RefreshStalls
	}
	for i := range c.MFC {
		r.MFCRetries += c.MFC[i].Retries
		r.MFCOccSamples[i] = c.MFC[i].Occupancy
	}
	r.PPEMissQStalls = c.PPE.MissQStalls
	r.PPEFills = c.PPE.Fills
	r.PPEPrefetchFills = c.PPE.PrefetchFills
	return r
}

// Add accumulates other into r, field by field (for per-job and
// per-scheduler aggregation of point rollups).
func (r *Rollup) Add(other Rollup) {
	r.EIBBytes += other.EIBBytes
	r.EIBGrants += other.EIBGrants
	r.EIBLocal += other.EIBLocal
	r.EIBDenies += other.EIBDenies
	r.EIBAbandons += other.EIBAbandons
	r.EIBBusyCycles += other.EIBBusyCycles
	r.EIBWaitCycles += other.EIBWaitCycles
	r.EIBCommands += other.EIBCommands
	for i := range r.XDRBytes {
		r.XDRBytes[i] += other.XDRBytes[i]
		r.XDRRowHits[i] += other.XDRRowHits[i]
		r.XDRRowMisses[i] += other.XDRRowMisses[i]
		r.XDRRefreshes[i] += other.XDRRefreshes[i]
	}
	for i := range r.EIBRampGrants {
		r.EIBRampGrants[i] += other.EIBRampGrants[i]
		r.EIBRampDenies[i] += other.EIBRampDenies[i]
		r.EIBRampAbandons[i] += other.EIBRampAbandons[i]
	}
	for i := range r.EIBRingBusy {
		r.EIBRingBusy[i] += other.EIBRingBusy[i]
	}
	r.MFCRetries += other.MFCRetries
	for i := range r.MFCOccSamples {
		for d := range r.MFCOccSamples[i] {
			r.MFCOccSamples[i][d] += other.MFCOccSamples[i][d]
			r.MFCOccCycles[i][d] += other.MFCOccCycles[i][d]
		}
	}
	r.PPEMissQStalls += other.PPEMissQStalls
	r.PPEFills += other.PPEFills
	r.PPEPrefetchFills += other.PPEPrefetchFills
}

// AddOccupancy folds one SPE's time-weighted SPU-queue histogram — hist[n]
// is the simulated cycles the queue spent holding exactly n commands, as
// mfc.OccupancyHist reports it — into the rollup, clamping depths beyond
// the last bucket. The sweep harvest calls this per SPE after a run, since
// the time-weighted view lives on the MFC, not in the counter block.
func (r *Rollup) AddOccupancy(spe int, hist []sim.Time) {
	if spe < 0 || spe >= NumSPEs {
		return
	}
	for d, cycles := range hist {
		b := d
		if b >= QueueBuckets {
			b = QueueBuckets - 1
		}
		r.MFCOccCycles[spe][b] += uint64(cycles)
	}
}

// XDRBytesTotal returns traffic summed over banks.
func (r Rollup) XDRBytesTotal() uint64 {
	var t uint64
	for _, b := range r.XDRBytes {
		t += b
	}
	return t
}
