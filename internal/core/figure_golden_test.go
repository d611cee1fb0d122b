package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestFigureGoldens pins every per-run sample of the figure experiments,
// byte for byte: the SHA-256 of the JSON-encoded samples of each
// experiment at a small fixed grid. The SPE-DMA figures run two layouts at
// 256 KiB per SPE and five DMA element sizes; the PPE, workload, SPU
// local-store and coroutine-kernel figures run two layouts at 256 KiB per
// SPE, 64 KiB of PPE memory traffic and two access widths. Any change to
// the kernels' event order, command stream, memory path or byte
// accounting moves a hash; a change that keeps the model exact keeps all
// of them.
func TestFigureGoldens(t *testing.T) {
	speGoldens := map[string]string{
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
		"cross-chip":        "612509e0dc155780f5dab4fc6ec725ae4dbc91ed12cf80d216ec048143c08030", // both curves at speParams.Chunks
	}
	speParams := DefaultParams()
	speParams.Runs = 2
	speParams.BytesPerSPE = 256 << 10
	speParams.Chunks = []int{128, 256, 1024, 2048, 16384}
	checkFigureGoldens(t, speParams, speGoldens)

	memGoldens := map[string]string{
		"ppe-l1":      "d6463e2b270c19671667ae347e1b37ba9f1d493ba76eac022a2883cec5e227e5",
		"ppe-l2":      "df580d8e96fd0917b671052ecdb0dbcb1f5c5adc1f6e2f92559ae429336df6d6",
		"ppe-mem":     "824d5b00ac1e3790780e5059904052d40e91a5632c8ed1554e1fb1f6c9b2bcc9",
		"workloads":   "bc1995072a2c1f3b327438b72e77d9c8e9407bf55337635b02ca428f7cae99d6",
		"spe-ls":      "986af8733431a64941a7af089c16adbb3f6c0c51dbdea5c4315b3e60c0e48c33",
		"streaming":   "f8959586267e4c5babffcda0e7c7dc39773a1a06538ca241d49d60b3be4c9f86",
		"stream":      "f4c5ab04fa16bdcb80f2698e221c734bd460cbe4f9e72dd6177685424dc969dc",
		"kernels":     "5725b54c2de59689554a2c386147a5fd74a5be340266c0646d09ad9d3f31cf8c",
		"task-chain":  "96ba0934694ec8a2f9759a2e67f925ee1436ae91b5ad1cb3878324d4d76da3ed",
		"dma-latency": "8d90a2b07cbcbf4acff19d29a6cdba98eea6bfdb1fabe77f5b1cc20a48f4a47d",
	}
	memParams := DefaultParams()
	memParams.Runs = 2
	memParams.BytesPerSPE = 256 << 10
	memParams.PPEBytes = 64 << 10
	memParams.Elems = []int{4, 16}
	checkFigureGoldens(t, memParams, memGoldens)
}

// checkFigureGoldens runs each named experiment at p as a parallel subtest
// and compares the hash of its per-run samples with the golden.
func checkFigureGoldens(t *testing.T, p Params, goldens map[string]string) {
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
