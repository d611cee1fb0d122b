package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// FuzzServeSpec drives arbitrary request bodies through the submission
// path's untrusted-input stages (parse: decode, the server's caps,
// SweepSpec.Validate) and checks the boundary contract: no input panics,
// every rejection is a 4xx carrying an error code, and every accepted
// spec stays inside the server's grid and volume caps.
func FuzzServeSpec(f *testing.F) {
	for _, seed := range []string{
		`{"scenario":"cycle","spes":4,"chunks":[4096],"seeds":[0],"volume":131072}`,
		`{"scenario":"pair","chunks":[128,16384],"seed_count":3,"first_seed":7,"volume":65536,"max_cycles":100}`,
		`{"scenario":"mem","spes":8,"op":"copy","chunks":[1024],"volume":262144,"faults":"mfc-retry:0.01","fault_seed":3}`,
		`{"scenario":"couples","spes":8,"list":true,"chunks":[256],"volume":65536,"config":{"ClockGHz":3.2}}`,
		`{"scenario":"qcd","spes":8,"chunks":[4096],"volume":1048576,"ring":3,"addr_seeds":[1,2,3,4,5,6,7,8]}`,
		`{"scenario":"pattern","spes":2,"chunks":[64],"volume":1,"pattern":{"phases":[{"access":"rand","op":"both","bytes":4096},{"access":"compute","cycles":100}],"region":65536,"reps":2}}`,
		`{"scenario":"pattern","spes":2,"chunks":[64],"pattern":{"phases":[{"access":"seq","op":"both","bytes":4611686018427387904}],"region":64}}`,
		`{"scenario":"cycle","spes":4,"chunks":[4096],"seed_count":1000000000,"volume":131072}`,
		`{"scenario":"cycle","chunks":[4096],"volume":131072,"bogus":1}`,
		`{"scenario":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Options{MaxPoints: 64, MaxVolume: 4 << 20})
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body))
		spec, ok := s.parse(w, r)
		if !ok {
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("rejection answered %d, want 4xx", w.Code)
			}
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Code == "" || eb.Error == "" {
				t.Fatalf("rejection body %q lacks an error code", w.Body.String())
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted a spec the scheduler rejects: %v", err)
		}
		if n := len(spec.Chunks) * len(spec.Seeds); n == 0 || n > s.opts.maxPoints() {
			t.Fatalf("accepted a grid of %d points (limit %d)", n, s.opts.maxPoints())
		}
		if spec.Volume > s.opts.maxVolume() {
			t.Fatalf("accepted volume %d (limit %d)", spec.Volume, s.opts.maxVolume())
		}
		if spec.Pattern != nil {
			if lb := spec.Pattern.LaneBytes(); lb < 0 || lb > s.opts.maxVolume() {
				t.Fatalf("accepted a pattern moving %d bytes per SPE (limit %d)", lb, s.opts.maxVolume())
			}
		}
	})
}
