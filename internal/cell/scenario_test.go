package cell

import (
	"strings"
	"testing"

	"cellbe/internal/spe"
)

func TestScenarioValidate(t *testing.T) {
	ok := []Scenario{
		{Kind: "pair", Chunk: 4096, Volume: 1 << 20},
		{Kind: "couples", SPEs: 8, Chunk: 16384, Volume: 1 << 20},
		{Kind: "cycle", SPEs: 3, Chunk: 128, Volume: 1 << 20},
		{Kind: "mem", SPEs: 4, Chunk: 16384, Volume: 1 << 20, Op: "copy"},
	}
	for _, sc := range ok {
		if err := sc.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", sc, err)
		}
	}
	bad := []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Kind: "warp", Chunk: 4096, Volume: 1 << 20}, "unknown scenario"},
		{Scenario{Kind: "pair", Chunk: 100, Volume: 1 << 20}, "multiple of 16"},
		// The historic failure mode: an oversized -chunk used to march
		// put offsets past the end of local store mid-simulation; it must
		// be rejected up front with a clear message instead.
		{Scenario{Kind: "pair", Chunk: 128 << 10, Volume: 1 << 20}, "DMA element limit"},
		{Scenario{Kind: "pair", Chunk: 4096, Volume: 0}, "volume"},
		{Scenario{Kind: "couples", SPEs: 5, Chunk: 4096, Volume: 1 << 20}, "even"},
		{Scenario{Kind: "cycle", SPEs: 9, Chunk: 4096, Volume: 1 << 20}, "out of range"},
		{Scenario{Kind: "mem", SPEs: 4, Chunk: 4096, Volume: 1 << 20, Op: "swizzle"}, "unknown mem op"},
		{Scenario{Kind: "cycle", SPEs: 4, Chunk: 4096, Volume: 1 << 20}.WithPairFigure(PairFigure{SyncEvery: 2}), "pair kind"},
		{Scenario{Kind: "pair", Chunk: 4096, Volume: 1 << 20}.WithPairFigure(PairFigure{Partner: NumSPEs}), "partner SPE"},
		{Scenario{Kind: "pair", Chunk: 4096, Volume: 1 << 20}.WithPairFigure(PairFigure{Partner: 2, Remote: true}), "remote partner"},
	}
	for _, tc := range bad {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%+v: expected error containing %q, got nil", tc.sc, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %q does not mention %q", tc.sc, err, tc.want)
		}
	}
}

// TestScenarioApertures pins the local-store layout of the pair kernels:
// the put aperture must hold the largest element's full slot rotation
// without overlapping the get aperture or running off the local store.
func TestScenarioApertures(t *testing.T) {
	for _, chunk := range []int{128, 1024, 4096, 16384} {
		slots := pairSlots(chunk)
		getEnd := pairGetBase + slots*chunk
		putEnd := pairPutBase + slots*chunk
		if getEnd > pairPutBase {
			t.Errorf("chunk %d: get aperture [%#x,%#x) overlaps put base %#x", chunk, pairGetBase, getEnd, pairPutBase)
		}
		if putEnd > spe.LocalStoreBytes {
			t.Errorf("chunk %d: put aperture ends at %#x, past local store end %#x", chunk, putEnd, spe.LocalStoreBytes)
		}
	}
}

func TestScenarioInstallRuns(t *testing.T) {
	for _, sc := range []Scenario{
		{Kind: "pair", Chunk: 4096, Volume: 64 << 10},
		{Kind: "couples", SPEs: 4, Chunk: 4096, Volume: 64 << 10},
		{Kind: "cycle", SPEs: 4, Chunk: 4096, Volume: 64 << 10},
		{Kind: "mem", SPEs: 2, Chunk: 16384, Volume: 64 << 10, Op: "get"},
	} {
		sys := New(DefaultConfig())
		total, err := sc.Install(sys)
		if err != nil {
			t.Fatalf("%s: %v", sc.Kind, err)
		}
		if total <= 0 {
			t.Fatalf("%s: nonpositive accounted volume %d", sc.Kind, total)
		}
		sys.Run()
		if sys.Eng.Now() <= 0 {
			t.Fatalf("%s: simulation did not advance", sc.Kind)
		}
		if st := sys.Bus.Stats(); st.Transfers == 0 {
			t.Fatalf("%s: no EIB transfers happened", sc.Kind)
		}
	}
}

func TestScenarioInstallRejectsInvalid(t *testing.T) {
	sys := New(DefaultConfig())
	if _, err := (Scenario{Kind: "pair", Chunk: 48 << 10, Volume: 1 << 20}).Install(sys); err == nil {
		t.Fatal("expected oversized chunk to be rejected before any kernel ran")
	}
	if sys.Eng.Pending() != 0 {
		t.Fatal("rejected scenario left events scheduled")
	}
}
