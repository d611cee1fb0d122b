package spe

import (
	"bytes"
	"testing"
	"testing/quick"

	"cellbe/internal/eib"
	"cellbe/internal/mfc"
	"cellbe/internal/sim"
)

// loopFabric connects every SPE's MFC to a shared flat memory with fixed
// latency, standing in for the cell package's routing.
type loopFabric struct {
	eng *sim.Engine
	mem []byte
	lat sim.Time
}

func (f *loopFabric) ReadEA(ea int64, n int, earliest sim.Time, dst []byte, done sim.Callee) {
	start := earliest
	if now := f.eng.Now(); start < now {
		start = now
	}
	end := start + f.lat
	f.eng.At(end, func() {
		copy(dst, f.mem[ea:ea+int64(n)])
		done.Call(end)
	})
}

func (f *loopFabric) WriteEA(ea int64, n int, earliest sim.Time, src []byte, done sim.Callee) {
	start := earliest
	if now := f.eng.Now(); start < now {
		start = now
	}
	end := start + f.lat
	f.eng.At(end, func() {
		copy(f.mem[ea:ea+int64(n)], src)
		done.Call(end)
	})
}

func newSPE(t *testing.T) (*sim.Engine, *loopFabric, *SPE) {
	t.Helper()
	eng := sim.NewEngine()
	fab := &loopFabric{eng: eng, mem: make([]byte, 1<<20), lat: 100}
	s := New(eng, 0, eib.RampSPE0, fab, DefaultConfig(), mfc.DefaultConfig())
	return eng, fab, s
}

func TestGetWaitTag(t *testing.T) {
	eng, fab, s := newSPE(t)
	for i := 0; i < 256; i++ {
		fab.mem[4096+i] = byte(i)
	}
	var doneAt sim.Time
	s.Run("k", func(ctx *Context) {
		ctx.Get(0, 4096, 256, 7)
		ctx.WaitTag(7)
		doneAt = ctx.Decrementer()
	})
	eng.Run()
	if doneAt == 0 {
		t.Fatal("kernel never finished")
	}
	if !bytes.Equal(s.LS()[:256], fab.mem[4096:4096+256]) {
		t.Fatal("GET payload mismatch")
	}
}

func TestPutDelivers(t *testing.T) {
	eng, fab, s := newSPE(t)
	copy(s.LS()[128:], []byte("spu payload"))
	s.Run("k", func(ctx *Context) {
		ctx.Put(128, 8192, 16, 0)
		ctx.WaitTag(0)
	})
	eng.Run()
	if string(fab.mem[8192:8192+11]) != "spu payload" {
		t.Fatalf("memory holds %q", fab.mem[8192:8192+11])
	}
}

func TestGetListViaContext(t *testing.T) {
	eng, fab, s := newSPE(t)
	for i := 0; i < 512; i++ {
		fab.mem[i] = byte(i * 3)
	}
	s.Run("k", func(ctx *Context) {
		ctx.GetList(0, []mfc.ListElem{{EA: 0, Size: 256}, {EA: 256, Size: 256}}, 1)
		ctx.WaitTag(1)
	})
	eng.Run()
	if !bytes.Equal(s.LS()[:512], fab.mem[:512]) {
		t.Fatal("GETL payload mismatch")
	}
}

func TestEnqueueBlocksOnFullQueue(t *testing.T) {
	// Issue far more commands than the queue depth: the context must
	// stall and retry, and all commands must eventually complete.
	eng, _, s := newSPE(t)
	const n = 64
	completed := false
	s.Run("k", func(ctx *Context) {
		for i := 0; i < n; i++ {
			ctx.Get((i%8)*1024, int64(i%8)*1024, 1024, 0)
		}
		ctx.WaitTag(0)
		completed = true
	})
	eng.Run()
	if !completed {
		t.Fatal("kernel with queue pressure did not complete")
	}
	if got := s.MFC().Stats().Commands; got != n {
		t.Fatalf("MFC saw %d commands, want %d", got, n)
	}
}

func TestWaitTagMaskAlreadyIdle(t *testing.T) {
	eng, _, s := newSPE(t)
	var before, after sim.Time
	s.Run("k", func(ctx *Context) {
		before = ctx.Decrementer()
		ctx.WaitTagMask(0xffff)
		after = ctx.Decrementer()
	})
	eng.Run()
	if after-before > 10 {
		t.Fatalf("wait on idle tags cost %d cycles, want just channel overhead", after-before)
	}
}

func TestStreamLSPeakAt16Bytes(t *testing.T) {
	eng, _, s := newSPE(t)
	var cyc16, cyc4 sim.Time
	s.Run("k", func(ctx *Context) {
		cyc16 = ctx.StreamLS(LSLoad, 16, 1<<20)
		cyc4 = ctx.StreamLS(LSLoad, 4, 1<<20)
	})
	eng.Run()
	// 16B loads: 1 cycle per access => 64Ki cycles for 1 MB => peak.
	if cyc16 != (1<<20)/16 {
		t.Fatalf("16B LS loads took %d cycles, want %d", cyc16, (1<<20)/16)
	}
	if cyc4 <= cyc16 {
		t.Fatal("4B accesses must be slower than 16B (quadword extract overhead)")
	}
}

func TestStreamLSBadSizePanics(t *testing.T) {
	eng, _, s := newSPE(t)
	s.Run("k", func(ctx *Context) {
		defer func() {
			if recover() == nil {
				t.Error("3-byte LS access should panic")
			}
			panic("rethrow")
		}()
		ctx.StreamLS(LSLoad, 3, 1024)
	})
	defer func() { recover() }()
	eng.Run()
}

func TestMailboxBlockingHandshake(t *testing.T) {
	eng := sim.NewEngine()
	mb := NewMailbox(eng, 1)
	var order []uint32
	sim.Spawn(eng, "reader", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			order = append(order, mb.Read(p))
		}
	})
	sim.Spawn(eng, "writer", func(p *sim.Process) {
		p.Wait(10)
		for i := uint32(1); i <= 3; i++ {
			mb.Write(p, i) // capacity 1: blocks until reader drains
		}
	})
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Fatalf("mailbox order %v", order)
	}
}

func TestMailboxTryOps(t *testing.T) {
	eng := sim.NewEngine()
	mb := NewMailbox(eng, 2)
	if _, ok := mb.TryRead(); ok {
		t.Fatal("empty mailbox must not read")
	}
	if !mb.TryWrite(1) || !mb.TryWrite(2) {
		t.Fatal("writes under capacity must succeed")
	}
	if mb.TryWrite(3) {
		t.Fatal("write over capacity must fail")
	}
	if v, ok := mb.TryRead(); !ok || v != 1 {
		t.Fatalf("read %d/%v, want 1", v, ok)
	}
	if len(mb.queue) != 1 {
		t.Fatalf("len %d, want 1", len(mb.queue))
	}
}

// Property: mailbox preserves FIFO order for any message sequence.
func TestMailboxFIFOProperty(t *testing.T) {
	f := func(msgs []uint32) bool {
		if len(msgs) == 0 {
			return true
		}
		eng := sim.NewEngine()
		mb := NewMailbox(eng, 4)
		var got []uint32
		sim.Spawn(eng, "r", func(p *sim.Process) {
			for range msgs {
				got = append(got, mb.Read(p))
			}
		})
		sim.Spawn(eng, "w", func(p *sim.Process) {
			for _, m := range msgs {
				mb.Write(p, m)
			}
		})
		eng.Run()
		if len(got) != len(msgs) {
			return false
		}
		for i := range msgs {
			if got[i] != msgs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessCostsUnknownSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown element size should panic")
		}
	}()
	DefaultConfig().LoadCost.Cost(5)
}

func TestDecrementerAdvances(t *testing.T) {
	eng, _, s := newSPE(t)
	var t0, t1 sim.Time
	s.Run("k", func(ctx *Context) {
		t0 = ctx.Decrementer()
		ctx.Wait(123)
		t1 = ctx.Decrementer()
	})
	eng.Run()
	if t1-t0 != 123 {
		t.Fatalf("decrementer advanced %d, want 123", t1-t0)
	}
}

func TestFencedVariantsOrder(t *testing.T) {
	// GetF/PutF/GetB/PutB must all complete and respect ordering: a
	// barriered PUT lands after a prior PUT to the same address.
	eng, fab, s := newSPE(t)
	copy(s.LS()[0:4], []byte{1, 1, 1, 1})
	copy(s.LS()[128:132], []byte{2, 2, 2, 2})
	s.Run("k", func(ctx *Context) {
		ctx.Put(0, 0, 128, 0)
		ctx.PutB(128, 0, 128, 1) // barrier: after the first PUT
		ctx.WaitTagMask(3)
		ctx.GetF(256, 0, 128, 2) // fenced read-back
		ctx.WaitTag(2)
		ctx.GetB(384, 0, 128, 3)
		ctx.WaitTag(3)
		ctx.PutF(384, 512, 128, 4)
		ctx.WaitTag(4)
	})
	eng.Run()
	if fab.mem[0] != 2 {
		t.Fatalf("barriered PUT did not win: mem[0]=%d", fab.mem[0])
	}
	if s.LS()[256] != 2 || s.LS()[384] != 2 {
		t.Fatal("fenced/barriered GETs read stale data")
	}
	if fab.mem[512] != 2 {
		t.Fatal("fenced PUT did not deliver")
	}
}

func TestPutListViaContext(t *testing.T) {
	eng, fab, s := newSPE(t)
	fill := func(off, n int, seed byte) {
		for i := 0; i < n; i++ {
			s.LS()[off+i] = seed + byte(i)
		}
	}
	fill(0, 128, 10)
	fill(128, 128, 99)
	s.Run("k", func(ctx *Context) {
		ctx.PutList(0, []mfc.ListElem{{EA: 1024, Size: 128}, {EA: 4096, Size: 128}}, 0)
		ctx.WaitTag(0)
	})
	eng.Run()
	if !bytes.Equal(fab.mem[1024:1024+128], s.LS()[0:128]) ||
		!bytes.Equal(fab.mem[4096:4096+128], s.LS()[128:256]) {
		t.Fatal("PUTL payload mismatch")
	}
}

func TestAccessorsAndCosts(t *testing.T) {
	_, _, s := newSPE(t)
	if s.index != 0 || s.Ramp() != eib.RampSPE0 {
		t.Fatal("accessors wrong")
	}
	costs := DefaultConfig().LoadCost
	for _, sz := range []int{1, 2, 4, 8, 16} {
		if costs.Cost(sz) <= 0 {
			t.Fatalf("cost for %dB must be positive", sz)
		}
	}
	if costs.Cost(16) >= costs.Cost(1) {
		t.Fatal("quadword access must be cheapest")
	}
}

func TestStreamLSStoreAndCopy(t *testing.T) {
	eng, _, s := newSPE(t)
	var st, cp sim.Time
	s.Run("k", func(ctx *Context) {
		if ctx.SPE() != s {
			t.Error("context SPE accessor wrong")
		}
		st = ctx.StreamLS(LSStore, 16, 1<<16)
		cp = ctx.StreamLS(LSCopy, 16, 1<<16)
	})
	eng.Run()
	if cp <= st {
		t.Fatal("copy must cost more than store (load+store per element)")
	}
}

func TestWriteMailboxBlocksAtCapacityOne(t *testing.T) {
	eng, _, s := newSPE(t)
	var wrote []sim.Time
	s.Run("k", func(ctx *Context) {
		ctx.WriteMailbox(1) // outbox depth 1: first write succeeds
		wrote = append(wrote, ctx.Decrementer())
		ctx.WriteMailbox(2) // blocks until drained
		wrote = append(wrote, ctx.Decrementer())
	})
	eng.At(500, func() { s.Outbox.TryRead() })
	eng.Run()
	if len(wrote) != 2 || wrote[1] < 500 {
		t.Fatalf("second outbox write at %v, want blocked until 500", wrote)
	}
}
