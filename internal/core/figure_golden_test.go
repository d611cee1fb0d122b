package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestFigureGoldens pins every per-run sample of the SPE-DMA figure
// experiments, byte for byte: the SHA-256 of the JSON-encoded samples of
// each experiment at a small fixed grid (two layouts, 256 KiB per SPE,
// five element sizes). Any change to the kernels' event order, command
// stream or byte accounting moves a hash; a change that keeps the model
// exact keeps all of them.
func TestFigureGoldens(t *testing.T) {
	goldens := map[string]string{
		"spe-mem-get":       "f5655862211290559f297e5344b4dd954808b1fc24c7b379900527f2d469107d",
		"spe-mem-put":       "8b9f8ce9b3be47a70b27ee190fd5cb7f6059bf8cc80667f33ff8dba0b692a308",
		"spe-mem-copy":      "214b1968f20c5231375754f5d5812bc0dc5f5e2ad5c6c9e11164c78172e3ed91",
		"spe-mem-get-list":  "97590386cb057435af7a3d7177765ea5b5722d627d2598cff97439c6f0f97963",
		"spe-pair-sync":     "d8da4837e89c03f9ceb6888db4657ff57d46370152e9776fc585749f04294c21",
		"spe-pair-distance": "51ef2c328250f94574a69f9120929f3407e0b3fac887f1fe56c907c0950bf433",
		"spe-couples":       "b849440d2a8f31e0417e584d2e918f42972cdd957aa6a611d82814f36ed2a9e0",
		"spe-couples-list":  "9ce5fb9c6839a59160e72d5352ff6a78b43a1bb408989b20910169a8a84a94f4",
		"spe-cycle":         "50ae8dbf9223735b8e4eb00768ad75ad3fe37ccae3925626f24c3228bf1dd2b1",
		"spe-cycle-list":    "a5a68a97f4a14793f64083ec5219d3a4d12526f62b4340d8c3195a5d03f1e8ac",
		"cross-chip":        "5aad22d0011b1aa84c1bc9befa7bcb6fa0b8ad0c895d528dad4feac29d957dd0",
	}
	p := DefaultParams()
	p.Runs = 2
	p.BytesPerSPE = 256 << 10
	p.Chunks = []int{128, 256, 1024, 2048, 16384}
	for name, want := range goldens {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			type sample struct {
				Label   string
				X       int
				Samples []float64
			}
			var samples []sample
			for _, c := range res.Curves {
				for _, pt := range c.Points {
					samples = append(samples, sample{c.Label, pt.X, pt.Samples})
				}
			}
			b, err := json.Marshal(samples)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s per-run samples moved\n got: %s\nwant: %s", name, got, want)
			}
		})
	}
}
