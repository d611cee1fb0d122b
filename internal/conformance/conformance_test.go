package conformance

import (
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sharedData is the one dataset all claim subtests draw from; probes are
// lazily computed and cached, so the suite's cost is the union of probes
// the selected claims need, regardless of shuffle order or parallelism.
var (
	sharedOnce sync.Once
	sharedData *Dataset
)

func dataset(t *testing.T) *Dataset {
	t.Helper()
	sharedOnce.Do(func() {
		sharedData = NewDataset(QuickParams(testing.Short()))
	})
	return sharedData
}

// TestClaims evaluates every claim of the reproduction record against
// fresh simulator runs — the paper's figures as executable assertions.
// With -short only the Short-tagged core-physics subset runs (the CI
// budget under -race).
func TestClaims(t *testing.T) {
	d := dataset(t)
	for _, c := range Claims() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			if testing.Short() && !c.Short {
				t.Skip("not part of the -short subset")
			}
			t.Parallel()
			o := Eval(c, d)
			for _, detail := range o.Details {
				t.Log(detail)
			}
			if o.Err != nil {
				t.Errorf("claim %q (%s | %s): %v", c.ID, c.Label, c.Paper, o.Err)
			}
		})
	}
}

// TestClaimInventory pins the structural guarantees of the suite: at
// least 25 executable paper claims, unique IDs, no claim without checks,
// and a -short subset that still covers every experiment family.
func TestClaimInventory(t *testing.T) {
	claims := Claims()
	if len(claims) < 25 {
		t.Errorf("only %d claims; the reproduction record requires at least 25", len(claims))
	}
	seen := make(map[string]bool)
	short := 0
	for _, c := range claims {
		if c.ID == "" {
			t.Errorf("claim %q has no ID", c.Label)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim ID %q", c.ID)
		}
		seen[c.ID] = true
		if len(c.Checks) == 0 {
			t.Errorf("claim %q has no checks — a row without a guard can silently rot", c.ID)
		}
		if c.Short {
			short++
		}
	}
	if short < 8 {
		t.Errorf("only %d claims in the -short subset; want at least 8", short)
	}
}

// TestProbeCoverage walks every check's metrics by reflection and asserts
// the referenced probes exist and that no registered probe is dead
// weight.
func TestProbeCoverage(t *testing.T) {
	used := make(map[string]bool)
	var collect func(v reflect.Value)
	collect = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			if m, ok := v.Interface().(Metric); ok {
				used[m.Probe] = true
				return
			}
			if k, ok := v.Interface().(Knee); ok {
				used[k.Probe] = true
				return
			}
			for i := 0; i < v.NumField(); i++ {
				collect(v.Field(i))
			}
		case reflect.Interface, reflect.Ptr:
			if !v.IsNil() {
				collect(v.Elem())
			}
		}
	}
	for _, c := range Claims() {
		for _, ch := range c.Checks {
			collect(reflect.ValueOf(ch))
		}
	}
	registered := make(map[string]bool)
	for _, n := range ProbeNames() {
		registered[n] = true
	}
	for p := range used {
		if !registered[p] {
			t.Errorf("claims reference unregistered probe %q", p)
		}
	}
	for p := range registered {
		if !used[p] {
			t.Errorf("probe %q is registered but no claim references it", p)
		}
	}
}

// TestExperimentsDocInSync asserts the checked-in EXPERIMENTS.md is
// byte-identical to what the claim tables render: edit claims.go, run
// `go generate .`, commit both.
func TestExperimentsDocInSync(t *testing.T) {
	onDisk, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("reading EXPERIMENTS.md: %v", err)
	}
	want := Doc()
	if string(onDisk) != want {
		t.Errorf("EXPERIMENTS.md is out of sync with the conformance claims; regenerate with `go generate .`\n"+
			"checked-in %d bytes, generated %d bytes; first divergence at byte %d",
			len(onDisk), len(want), firstDiff(string(onDisk), want))
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestReport exercises the text reporter on fabricated outcomes; the real
// evaluation path is covered by TestClaims.
func TestReport(t *testing.T) {
	pass := &Claim{ID: "x/pass", Label: "good"}
	fail := &Claim{ID: "x/fail", Label: "bad"}
	var b strings.Builder
	failed := Report(&b, []Outcome{
		{Claim: pass, Details: []string{"a >= b: 2.00 vs 1.00"}},
		{Claim: fail, Err: os.ErrInvalid},
	})
	if failed != 1 {
		t.Errorf("Report returned %d failures, want 1", failed)
	}
	out := b.String()
	for _, want := range []string{"PASS x/pass", "FAIL x/fail", "2 claims evaluated, 1 failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestEvalUnknownProbe asserts a claim can never pass by measuring
// nothing: a bad probe or curve name is an evaluation error.
func TestEvalUnknownProbe(t *testing.T) {
	d := NewDataset(QuickParams(true))
	bad := &Claim{ID: "x/bad", Checks: []Check{
		Range{M: Metric{Probe: "no-such-probe", Curve: "c", X: 1}, Min: 0, Max: 1},
	}}
	if o := Eval(bad, d); o.Err == nil {
		t.Error("claim with an unknown probe evaluated without error")
	}
	bad2 := &Claim{ID: "x/bad2", Checks: []Check{
		Range{M: Metric{Probe: "spe-ls", Curve: "no-such-curve", X: 1}, Min: 0, Max: 1},
	}}
	if o := Eval(bad2, dataset(t)); o.Err == nil {
		t.Error("claim with an unknown curve evaluated without error")
	}
}

// TestEvalAllReport drives the same entry point the cellbench
// -conformance flag uses: EvalAll over the shared dataset (probe results
// are cached, so this costs only the claim arithmetic) rendered through
// Report. Every outcome must carry its details and the tail line must
// account for every evaluated claim.
func TestEvalAllReport(t *testing.T) {
	d := dataset(t)
	short := testing.Short()
	outcomes := EvalAll(d, short)
	want := 0
	for _, c := range Claims() {
		if !short || c.Short {
			want++
		}
	}
	if len(outcomes) != want {
		t.Fatalf("EvalAll returned %d outcomes, want %d", len(outcomes), want)
	}
	for _, o := range outcomes {
		if len(o.Details) == 0 {
			t.Errorf("claim %q evaluated with no detail lines", o.Claim.ID)
		}
	}
	var sb strings.Builder
	failed := Report(&sb, outcomes)
	if got := strings.Count(sb.String(), "\n"); got < want {
		t.Errorf("report has %d lines for %d claims:\n%s", got, want, sb.String())
	}
	if !strings.Contains(sb.String(), "claims evaluated") {
		t.Errorf("report missing the summary line:\n%s", sb.String())
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Errorf("claim %q failed: %v", o.Claim.ID, o.Err)
		}
	}
	_ = failed // failures are reported per claim above
}
