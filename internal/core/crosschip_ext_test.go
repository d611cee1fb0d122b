package core

import (
	"bytes"
	"testing"

	"cellbe/internal/spe"
)

func TestCrossChipLimitedByIOIF(t *testing.T) {
	p := fastParams()
	p.Runs = 2
	res, err := CrossChip(p)
	if err != nil {
		t.Fatal(err)
	}
	on, _ := res.At("on-chip partner", 16384)
	cross, _ := res.At("cross-chip partner", 16384)
	if on.Mean < 30 {
		t.Errorf("on-chip pair %.1f GB/s, want near the 33.6 peak", on.Mean)
	}
	// GET and PUT each cross a 7 GB/s link direction: the aggregate must
	// sit well below the on-chip peak and at or under 14.
	if cross.Mean > 14 || cross.Mean < 7 {
		t.Errorf("cross-chip pair %.1f GB/s, want within (7, 14] (two 7 GB/s directions)", cross.Mean)
	}
	if cross.Mean > on.Mean/2 {
		t.Errorf("cross-chip (%.1f) must be far below on-chip (%.1f)", cross.Mean, on.Mean)
	}
}

// TestCrossChipHonoursChunks: the element-size axis of both curves obeys
// Params.Chunks, as every sweep-backed figure does.
func TestCrossChipHonoursChunks(t *testing.T) {
	p := tinyParams()
	p.Chunks = []int{4096}
	res, err := CrossChip(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Curves {
		if len(c.Points) != 1 || c.Points[0].X != 4096 {
			t.Errorf("%q: points %+v, want only x=4096", c.Label, c.Points)
		}
	}
}

func TestRemoteLSDataRoundTrip(t *testing.T) {
	p := fastParams()
	sys := testSystem(p)
	// PUT a payload to the remote chip's SPE 3, then GET it back.
	src := sys.SPEs[0]
	for i := 0; i < 2048; i++ {
		src.LS()[i] = byte(i * 7)
	}
	src.Run("k", func(ctx *spe.Context) {
		ctx.Put(0, sys.RemoteLSEA(3, 4096), 2048, 0)
		ctx.WaitTag(0)
		ctx.Get(8192, sys.RemoteLSEA(3, 4096), 2048, 1)
		ctx.WaitTag(1)
	})
	sys.Run()
	if !bytes.Equal(sys.RemoteLS(3)[4096:4096+2048], src.LS()[:2048]) {
		t.Fatal("remote LS did not receive the PUT payload")
	}
	if !bytes.Equal(src.LS()[8192:8192+2048], src.LS()[:2048]) {
		t.Fatal("GET from remote LS returned wrong data")
	}
}

func TestRemoteLSBoundsPanic(t *testing.T) {
	p := fastParams()
	sys := testSystem(p)
	defer func() {
		if recover() == nil {
			t.Fatal("bad remote index should panic")
		}
	}()
	sys.RemoteLSEA(8, 0)
}

func TestTaskChainShape(t *testing.T) {
	p := fastParams()
	p.Runs = 1
	res, err := TaskChain(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"through-memory", "forwarding"} {
		one, _ := res.At(policy, 1)
		four, _ := res.At(policy, 4)
		if four.Mean < one.Mean*1.4 {
			t.Errorf("%s: 4 workers (%.1f) should scale over 1 (%.1f) with 4 chains",
				policy, four.Mean, one.Mean)
		}
	}
	mem4, _ := res.At("through-memory", 4)
	fwd4, _ := res.At("forwarding", 4)
	if fwd4.Mean <= mem4.Mean {
		t.Errorf("forwarding (%.1f) must beat through-memory (%.1f)", fwd4.Mean, mem4.Mean)
	}
}
