package xdr

import (
	"bytes"
	"testing"
	"testing/quick"

	"cellbe/internal/eib"
	"cellbe/internal/sim"
)

func newMem(interleave bool) (*sim.Engine, *Memory) {
	eng := sim.NewEngine()
	bus := eib.New(eng, eib.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Interleave = interleave
	cfg.RefreshPeriod = 0 // most tests want exact timing
	return eng, New(eng, bus, cfg)
}

func TestRAMReadWriteRoundTrip(t *testing.T) {
	r := NewRAM(1<<20, 64<<10)
	data := []byte("hello, cell broadband engine")
	r.Write(12345, data)
	got := make([]byte, len(data))
	r.Read(12345, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip got %q, want %q", got, data)
	}
}

func TestRAMCrossPage(t *testing.T) {
	r := NewRAM(1<<20, 64<<10)
	addr := int64(64<<10) - 5
	data := []byte("0123456789")
	r.Write(addr, data)
	got := make([]byte, len(data))
	r.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page round trip got %q, want %q", got, data)
	}
	if r.TouchedPages() != 2 {
		t.Fatalf("touched %d pages, want 2", r.TouchedPages())
	}
}

func TestRAMUntouchedReadsZero(t *testing.T) {
	r := NewRAM(1<<20, 64<<10)
	got := make([]byte, 16)
	for i := range got {
		got[i] = 0xff
	}
	r.Read(999, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched memory must read as zero")
		}
	}
	if r.TouchedPages() != 0 {
		t.Fatal("reads must not materialize pages")
	}
}

func TestRAMOutOfRangePanics(t *testing.T) {
	r := NewRAM(1<<20, 64<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access should panic")
		}
	}()
	r.Write((1<<20)-4, make([]byte, 8))
}

// TestRAMResetZeroesReusedBlocks: after Reset, blocks written elsewhere
// take the slots the earlier run filled, and every byte of the earlier
// writes, a partly filled block's included, reads as zero.
func TestRAMResetZeroesReusedBlocks(t *testing.T) {
	for _, block := range []int64{LineBytes, 4 << 10, 64 << 10} {
		r := NewRAM(1<<20, block)
		full := bytes.Repeat([]byte{0xa5}, int(2*block))
		r.Write(0, full)                       // two whole blocks
		r.Write(5*block+3, []byte{1, 2, 3, 4}) // a partly filled block
		r.Reset(1 << 20)
		if r.TouchedPages() != 0 {
			t.Fatalf("block %d: %d blocks survive Reset", block, r.TouchedPages())
		}
		r.Write(9*block, []byte{7})          // reuses the first slot
		r.Write(10*block+block-1, []byte{8}) // the second
		r.Write(11*block, []byte{9})         // the third
		got := make([]byte, 12*block)
		r.Read(0, got)
		for i, b := range got {
			want := byte(0)
			switch int64(i) {
			case 9 * block:
				want = 7
			case 10*block + block - 1:
				want = 8
			case 11 * block:
				want = 9
			}
			if b != want {
				t.Fatalf("block %d: byte %#x reads %#x after Reset, want %#x", block, i, b, want)
			}
		}
	}
}

// TestRAMResetReleasesUnusedStorage: Reset keeps at most keepBytes of
// storage chunks and of slot tables, so a one-off large run's storage is
// released at the next Reset instead of being pinned for good, while a
// run that fits reuses what is kept.
func TestRAMResetReleasesUnusedStorage(t *testing.T) {
	const total = 512 << 20
	keepChunks, keepTables := keepBytes/chunkBytes, keepBytes/(4*tableBlocks)
	r := NewRAM(total, LineBytes)
	r.Write(0, make([]byte, 16<<20)) // 256 chunks
	for a := int64(0); a < total; a += tableBlocks * LineBytes {
		r.Write(a, []byte{1}) // 8192 tables
	}
	r.Reset(total)
	if len(r.chunks) != keepChunks || len(r.spare) != keepTables {
		t.Fatalf("after a large run Reset keeps %d chunks, %d tables; want %d, %d",
			len(r.chunks), len(r.spare), keepChunks, keepTables)
	}
	r.Write(32<<20, make([]byte, 100<<10)) // 800 lines: 13 chunks, 2 tables
	r.Reset(total)
	if len(r.chunks) != keepChunks || len(r.spare) != keepTables {
		t.Fatalf("a run that fits grew the kept storage to %d chunks, %d tables", len(r.chunks), len(r.spare))
	}
}

// TestRAMResetResizes: Reset sizes the address space anew, and a size
// that is not a positive multiple of the block panics.
func TestRAMResetResizes(t *testing.T) {
	r := NewRAM(1<<20, LineBytes)
	r.Write(0, []byte{1})
	r.Reset(2 << 20)
	if r.Size() != 2<<20 {
		t.Fatalf("Size %d after Reset(2 MiB)", r.Size())
	}
	r.Write(2<<20-1, []byte{2}) // out of range before the resize
	got := []byte{9}
	r.Read(0, got)
	if got[0] != 0 {
		t.Fatalf("byte 0 reads %d after Reset", got[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset to a size that is not a multiple of the block should panic")
		}
	}()
	r.Reset(1<<20 + 1)
}

// Property: writes then reads of arbitrary payloads at arbitrary offsets
// round-trip.
func TestRAMRoundTripProperty(t *testing.T) {
	r := NewRAM(1<<20, 4<<10)
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		addr := int64(off) % (1<<20 - int64(len(payload)))
		r.Write(addr, payload)
		got := make([]byte, len(payload))
		r.Read(addr, got)
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBankInterleave(t *testing.T) {
	_, m := newMem(true)
	page := m.Config().PageBytes
	// The configured ratio must hold over any window of 10 pages, with
	// remote pages spread out rather than clustered.
	remote := 0
	maxRun := 0
	run := 0
	for i := int64(0); i < 10; i++ {
		if m.Bank(i*page) == 1 {
			remote++
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	want := m.Config().RemotePagesPer10
	if remote != want {
		t.Fatalf("%d of 10 pages remote, want %d", remote, want)
	}
	if maxRun > 1 {
		t.Fatalf("remote pages clustered (run of %d)", maxRun)
	}
	local := int64(0)
	if m.Bank(local) != 0 {
		// find a local page for the ramp check
		for m.Bank(local) != 0 {
			local += page
		}
	}
	remoteAddr := int64(0)
	for m.Bank(remoteAddr) != 1 {
		remoteAddr += page
	}
	if m.Ramp(local) != eib.RampMIC || m.Ramp(remoteAddr) != eib.RampIOIF0 {
		t.Fatal("bank ramps wrong")
	}
}

func TestBankContiguous(t *testing.T) {
	_, m := newMem(false)
	half := m.Config().TotalBytes / 2
	if m.Bank(0) != 0 || m.Bank(half-1) != 0 || m.Bank(half) != 1 {
		t.Fatal("contiguous bank split wrong")
	}
}

func TestReadDeliversData(t *testing.T) {
	eng, m := newMem(true)
	want := []byte("cell blade payload, 32 bytes ok!")
	m.RAM().Write(4096, want)
	got := make([]byte, len(want))
	doneAt := sim.Time(0)
	m.Read(eib.RampSPE0, 4096, len(want), 0, got, sim.CalleeFunc(func(e sim.Time) { doneAt = e }))
	eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	if doneAt <= 0 {
		t.Fatal("done must fire with a positive end time")
	}
	st := m.BankStats(0)
	if st.ReadBytes != int64(len(want)) {
		t.Fatalf("bank read bytes %d, want %d", st.ReadBytes, len(want))
	}
}

func TestWriteDeliversData(t *testing.T) {
	eng, m := newMem(true)
	want := []byte("written through the MIC")
	done := false
	m.Write(eib.RampSPE0, 8192, len(want), 0, want, sim.CalleeFunc(func(sim.Time) { done = true }))
	eng.Run()
	if !done {
		t.Fatal("write did not complete")
	}
	got := make([]byte, len(want))
	m.RAM().Read(8192, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("memory holds %q, want %q", got, want)
	}
}

func TestReadLatencyLocalVsRemote(t *testing.T) {
	eng, m := newMem(true)
	page := m.Config().PageBytes
	remoteAddr := int64(0)
	for m.Bank(remoteAddr) != 1 {
		remoteAddr += page
	}
	var localEnd, remoteEnd sim.Time
	m.Read(eib.RampSPE0, 0, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { localEnd = e }))
	eng.Run()
	m.Read(eib.RampSPE0, remoteAddr, 128, eng.Now(), nil, sim.CalleeFunc(func(e sim.Time) { remoteEnd = e }))
	start := eng.Now()
	eng.Run()
	if remoteEnd-start <= localEnd {
		t.Fatalf("remote read (%d) must be slower than local (%d)", remoteEnd-start, localEnd)
	}
}

func TestLineCrossingPanics(t *testing.T) {
	_, m := newMem(true)
	defer func() {
		if recover() == nil {
			t.Fatal("line-crossing request should panic")
		}
	}()
	m.Read(eib.RampSPE0, 100, 64, 0, nil, sim.CalleeFunc(func(sim.Time) {}))
}

func TestOversizeRequestPanics(t *testing.T) {
	_, m := newMem(true)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize request should panic")
		}
	}()
	m.Read(eib.RampSPE0, 0, 256, 0, nil, sim.CalleeFunc(func(sim.Time) {}))
}

// Bank throughput: N back-to-back line reads from one bank cannot finish
// faster than N * service time.
func TestBankServiceRateLimits(t *testing.T) {
	eng, m := newMem(false) // contiguous: all in bank 0
	const n = 100
	var last sim.Time
	for i := 0; i < n; i++ {
		m.Read(eib.RampSPE0, int64(i)*128, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { last = e }))
	}
	eng.Run()
	min := sim.Time(n) * m.Config().LocalServiceCycles
	if last < min {
		t.Fatalf("%d reads finished at %d, faster than bank service floor %d", n, last, min)
	}
	// And not absurdly slower: latency is pipelined, so the total should
	// be service time plus one latency tail, within slack.
	max := min + m.Config().LocalReadLatency + 500
	if last > max {
		t.Fatalf("%d reads finished at %d, want <= %d (latency must pipeline)", n, last, max)
	}
}

// Remote bank is capped by the IOIF link at ~7 GB/s: service 38 cycles per
// line vs 16 locally.
func TestRemoteSlowerThanLocalThroughput(t *testing.T) {
	measure := func(addr0 int64) sim.Time {
		eng, m := newMem(false)
		var last sim.Time
		for i := 0; i < 50; i++ {
			m.Read(eib.RampSPE0, addr0+int64(i)*128, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { last = e }))
		}
		eng.Run()
		return last
	}
	local := measure(0)
	remote := measure(256 << 20)
	if remote <= local {
		t.Fatalf("remote stream (%d) must be slower than local (%d)", remote, local)
	}
}

func TestTurnaroundPenalty(t *testing.T) {
	// Use an exaggerated turnaround so the mechanism dominates the small
	// latency differences between the read and write completion paths.
	runPattern := func(alternate bool) sim.Time {
		eng := sim.NewEngine()
		bus := eib.New(eng, eib.DefaultConfig())
		cfg := DefaultConfig()
		cfg.Interleave = false
		cfg.RefreshPeriod = 0
		cfg.TurnaroundCycles = 50
		m := New(eng, bus, cfg)
		var last sim.Time
		buf := make([]byte, 128)
		for i := 0; i < 40; i++ {
			addr := int64(i) * 128
			if alternate && i%2 == 1 {
				m.Write(eib.RampSPE0, addr, 128, 0, buf, sim.CalleeFunc(func(e sim.Time) { last = e }))
			} else {
				m.Read(eib.RampSPE0, addr, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { last = e }))
			}
		}
		eng.Run()
		return last
	}
	pure := runPattern(false)
	mixed := runPattern(true)
	if mixed <= pure {
		t.Fatalf("alternating read/write (%d) must pay turnaround vs pure reads (%d)", mixed, pure)
	}
}

func TestRefreshStealsBandwidth(t *testing.T) {
	run := func(refresh bool) sim.Time {
		eng := sim.NewEngine()
		bus := eib.New(eng, eib.DefaultConfig())
		cfg := DefaultConfig()
		cfg.Interleave = false
		if !refresh {
			cfg.RefreshPeriod = 0
		}
		m := New(eng, bus, cfg)
		var last sim.Time
		for i := 0; i < 2000; i++ {
			m.Read(eib.RampSPE0, int64(i)*128, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { last = e }))
		}
		eng.Run()
		return last
	}
	with := run(true)
	without := run(false)
	if with <= without {
		t.Fatalf("refresh must slow a saturating stream: with=%d without=%d", with, without)
	}
}

// FuzzRAM drives the block store with a program of writes, reads and
// Resets against a reference model (a plain map of the bytes written
// since the last Reset), at line-sized and 64 KiB blocks: every read,
// and every byte the program touched at the end, must match the model.
func FuzzRAM(f *testing.F) {
	f.Add(int64(0), []byte("seed"))
	f.Add(int64(65530), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) // page crossing
	// Write, Reset, write a partial line elsewhere, read that whole line.
	f.Add(int64(120), []byte{2, 10, 200, 0, 0, 0, 3, 20, 50, 1, 20, 255})
	f.Fuzz(func(t *testing.T, addr int64, prog []byte) {
		if len(prog) == 0 || len(prog) > 1<<16 {
			return
		}
		const total = 1 << 20
		if addr < 0 {
			addr = -addr
		}
		addr %= total - int64(len(prog))
		for _, block := range []int64{LineBytes, 64 << 10} {
			r := NewRAM(total, block)
			model := map[int64]byte{}
			touched := map[int64]bool{}
			// The first write is the whole program at addr, so plain
			// round trips stay covered; then each 3-byte step is an
			// op (write, read or Reset), an offset and a length.
			r.Write(addr, prog)
			for i, b := range prog {
				model[addr+int64(i)] = b
				touched[addr+int64(i)] = true
			}
			for p := prog; len(p) >= 3; p = p[3:] {
				at := (addr + int64(p[1])*97) % (total - 256)
				n := int(p[2]) + 1
				switch p[0] % 4 {
				case 0:
					r.Reset(total)
					clear(model)
				case 1:
					got := make([]byte, n)
					r.Read(at, got)
					for i, b := range got {
						if b != model[at+int64(i)] {
							t.Fatalf("block %d: read %#x reads %#x, model %#x", block, at+int64(i), b, model[at+int64(i)])
						}
					}
				default:
					src := make([]byte, n)
					for i := range src {
						src[i] = p[0] ^ byte(i)
						model[at+int64(i)] = src[i]
						touched[at+int64(i)] = true
					}
					r.Write(at, src)
				}
			}
			for a := range touched {
				var got [1]byte
				r.Read(a, got[:])
				if got[0] != model[a] {
					t.Fatalf("block %d: byte %#x reads %#x, model %#x", block, a, got[0], model[a])
				}
			}
		}
	})
}
