package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/fault"
	"cellbe/internal/sim"
)

// marshalledPointKey is the point key in its reference form: the config
// resolved by cloning the base, deriving the fault seed and dropping the
// layout, and one json.Marshal of the whole key struct, hashed.
func marshalledPointKey(t *testing.T, spec *SweepSpec, chunk int, seed int64) [sha256.Size]byte {
	t.Helper()
	cfg := cell.DefaultConfig()
	if spec.Base != nil {
		cfg = spec.Base.Clone()
	}
	cfg.Layout = nil
	if cfg.Faults.Enabled() && cfg.FaultSeed == 0 {
		cfg.FaultSeed = DeriveFaultSeed(seed)
	}
	var figure *cell.PairFigure
	if spec.figure != (cell.PairFigure{}) {
		figure = &spec.figure
	}
	k := struct {
		Scenario  cell.Scenario
		Config    cell.Config
		Seed      int64
		MaxCycles sim.Time
		Figure    *cell.PairFigure `json:",omitempty"`
	}{spec.scenario(chunk), cfg, seed, spec.MaxCycles, figure}
	b, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// TestPointKeyMatchesMarshalledStruct: the streamed key is byte for byte the hash of the marshalled key struct
// for every kind of spec, so journals written before keep replaying warm.
func TestPointKeyMatchesMarshalledStruct(t *testing.T) {
	overlay, err := cell.ParseConfig([]byte(`{"EIB":{"RingDeadCycles":32},"Mem":{"NoisePeriod":5000,"NoiseCycles":40}}`))
	if err != nil {
		t.Fatal(err)
	}
	faulty := cell.DefaultConfig()
	faulty.Faults = fault.Config{MFCRetryRate: 0.01, EIBSlowRate: 0.02}
	seeded := faulty
	seeded.FaultSeed = 77
	laidOut := cell.DefaultConfig()
	laidOut.Layout = cell.RandomLayout(5)
	pair := SweepSpec{Scenario: "pair", Chunks: []int{4096}, Seeds: []int64{3}, Volume: 256 << 10}
	figured := pair
	figured.figure = cell.PairFigure{SyncEvery: 4, Partner: 5, Remote: true}
	budget := pair
	budget.MaxCycles = 123456
	cases := []struct {
		name string
		spec SweepSpec
	}{
		{"nil-base", pair},
		{"overlay", SweepSpec{Scenario: "cycle", SPEs: 8, Volume: 128 << 10, Base: &overlay}},
		{"faults-derived-seed", SweepSpec{Scenario: "couples", SPEs: 4, Volume: 128 << 10, Base: &faulty}},
		{"faults-explicit-seed", SweepSpec{Scenario: "couples", SPEs: 4, Volume: 128 << 10, Base: &seeded}},
		{"base-layout", SweepSpec{Scenario: "mem", SPEs: 2, Op: "put", List: true, Volume: 64 << 10, Base: &laidOut}},
		{"max-cycles", budget},
		{"pair-figure", figured},
		{"pattern-kind", SweepSpec{Scenario: "gups", SPEs: 3, Volume: 8 << 10, AddrSeeds: []int64{9, 8, 7}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, chunk := range []int{128, 4096} {
				for _, seed := range []int64{0, 1, 3, -9} {
					want := marshalledPointKey(t, &c.spec, chunk, seed)
					if got := pointKey(&c.spec, chunk, seed); got != want {
						t.Errorf("chunk %d seed %d: pointKey %x, marshalled struct %x", chunk, seed, got, want)
					}
				}
			}
		})
	}
}

// configLeaves calls visit with the path of every leaf field of v, a
// struct, and an addressable value to perturb it through; slices (the
// layout) are skipped.
func configLeaves(path string, v reflect.Value, visit func(string, reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+"."+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			configLeaves(name, f, visit)
		case reflect.Slice:
		default:
			visit(name, f)
		}
	}
}

// TestPointKeySeesEveryConfigLeaf: perturbing any numeric or bool field
// of the machine config moves the key, so a base that differs from the
// default machine anywhere never takes the default's stored encoding.
func TestPointKeySeesEveryConfigLeaf(t *testing.T) {
	spec := SweepSpec{Scenario: "cycle", SPEs: 8, Volume: 128 << 10}
	base := pointKey(&spec, 4096, 2)
	leaves := 0
	configLeaves("Config", reflect.ValueOf(new(cell.Config)).Elem(), func(name string, _ reflect.Value) {
		leaves++
		cfg := cell.DefaultConfig()
		var leaf reflect.Value
		configLeaves("Config", reflect.ValueOf(&cfg).Elem(), func(n string, f reflect.Value) {
			if n == name {
				leaf = f
			}
		})
		switch leaf.Kind() {
		case reflect.Bool:
			leaf.SetBool(!leaf.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			leaf.SetInt(leaf.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			leaf.SetUint(leaf.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			leaf.SetFloat(leaf.Float()*2 + 0.25)
		default:
			t.Fatalf("%s: a %s leaf; teach this test to perturb it", name, leaf.Kind())
		}
		perturbed := spec
		perturbed.Base = &cfg
		got := pointKey(&perturbed, 4096, 2)
		if got == base {
			t.Errorf("perturbing %s left the point key unchanged", name)
		}
		if want := marshalledPointKey(t, &perturbed, 4096, 2); got != want {
			t.Errorf("perturbing %s: key %x, marshalled struct %x", name, got, want)
		}
	})
	if leaves < 40 {
		t.Fatalf("walked %d config leaves; the walk is broken", leaves)
	}
}

// TestPointKeyAlternatesMachines: points on the default machine and on
// other machines, keyed in turn, each hash their own config: the default's
// stored encoding is what json.Marshal writes for it, an explicit base
// equal to the default shares its key, and no other base gets it.
func TestPointKeyAlternatesMachines(t *testing.T) {
	want, _ := json.Marshal(machineConfig(nil, 3))
	if got := defaultConfigJSON(); !bytes.Equal(got, want) {
		t.Fatalf("stored default config encoding differs:\n%s", firstDiff(got, want))
	}
	def := cell.DefaultConfig()
	specs := []SweepSpec{{Scenario: "cycle", SPEs: 8, Volume: 128 << 10}}
	for i := 1; i <= 3; i++ {
		cfg := cell.DefaultConfig()
		cfg.EIB.RingDeadCycles += sim.Time(i)
		specs = append(specs, SweepSpec{Scenario: "cycle", SPEs: 8, Volume: 128 << 10, Base: &cfg})
	}
	keys := map[[sha256.Size]byte]int{}
	for round := 0; round < 3; round++ {
		for i := range specs {
			want := marshalledPointKey(t, &specs[i], 4096, 3)
			if got := pointKey(&specs[i], 4096, 3); got != want {
				t.Fatalf("round %d, machine %d: key %x, marshalled struct %x", round, i, got, want)
			}
			keys[want] = i
		}
	}
	if len(keys) != len(specs) {
		t.Fatalf("%d machines hashed to %d keys", len(specs), len(keys))
	}
	explicit := specs[0]
	explicit.Base = &def
	if pointKey(&explicit, 4096, 3) != pointKey(&specs[0], 4096, 3) {
		t.Error("an explicit default base keys differently from a nil base")
	}
}

// firstDiff shows where two encodings part.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-20)
	return fmt.Sprintf("got  …%s\nwant …%s", a[lo:min(len(a), i+20)], b[lo:min(len(b), i+20)])
}
