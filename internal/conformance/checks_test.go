package conformance

import (
	"testing"

	"cellbe/internal/core"
	"cellbe/internal/stats"
)

// fabricated registers a fixed result as the probe "fab" for the length
// of the test and returns a dataset that reads it. Its curve "c" rises
// 1, 2, 4 to a knee at x=4 and reads 5 past it; curve "zero" is 0 at
// x=1. Every value is exact in binary, so a bound set to a measured
// value or ratio sits exactly on it.
func fabricated(t *testing.T) *Dataset {
	t.Helper()
	curve := func(label string, xs []int, ys []float64) core.Curve {
		c := core.Curve{Label: label}
		for i, x := range xs {
			samples := []float64{ys[i]}
			c.Points = append(c.Points, core.Point{X: x, Summary: stats.Summarize(samples), Samples: samples})
		}
		return c
	}
	res := &core.Result{Name: "fab", Curves: []core.Curve{
		curve("c", []int{1, 2, 4, 8}, []float64{1, 2, 4, 5}),
		curve("zero", []int{1}, []float64{0}),
	}}
	probes["fab"] = func(core.Params) (*core.Result, error) { return res, nil }
	t.Cleanup(func() { delete(probes, "fab") })
	return NewDataset(QuickParams(true))
}

// TestCheckArithmetic pins each check kind's bounds on the fabricated
// probe: a pass exactly at a bound, a fail just beyond it, Ratio's zero
// denominator, the one-sided Ranges, and a Knee failing on either side
// of its knee.
func TestCheckArithmetic(t *testing.T) {
	d := fabricated(t)
	at := func(x int) Metric { return Metric{Probe: "fab", Curve: "c", X: x} }
	zero := Metric{Probe: "fab", Curve: "zero", X: 1}
	cases := []struct {
		name     string
		check    Check
		describe string // checked when set
		pass     bool
	}{
		{"range at both bounds", Range{M: at(4), Min: 4, Max: 4}, "fab[c]@4 in [4.0, 4.0]", true},
		{"range below min", Range{M: at(4), Min: 4.01, Max: 5}, "", false},
		{"range above max", Range{M: at(4), Min: 1, Max: 3.99}, "", false},
		{"range lower bound only, at it", Range{M: at(4), Min: 4}, "fab[c]@4 >= 4.0", true},
		{"range lower bound only, beyond", Range{M: at(4), Min: 4.01}, "", false},
		{"range upper bound only, at it", Range{M: at(4), Max: 4}, "fab[c]@4 <= 4.0", true},
		{"range upper bound only, beyond", Range{M: at(4), Max: 3.99}, "", false},
		{"ratio at both bounds", Ratio{Num: at(4), Den: at(2), Min: 2, Max: 2}, "fab[c]@4 / fab[c]@2 in [2.00, 2.00]", true},
		{"ratio lower bound only, at it", Ratio{Num: at(4), Den: at(2), Min: 2}, "fab[c]@4 / fab[c]@2 >= 2.00", true},
		{"ratio below min", Ratio{Num: at(4), Den: at(2), Min: 2.01}, "", false},
		{"ratio above max", Ratio{Num: at(4), Den: at(2), Min: 1, Max: 1.99}, "", false},
		{"ratio zero denominator", Ratio{Num: at(4), Den: zero, Min: 1}, "", false},
		{"knee at both bounds", Knee{Probe: "fab", Curve: "c", KneeX: 4, MaxFrac: 0.5, FlatTol: 0.25}, "", true},
		{"knee fails below the knee", Knee{Probe: "fab", Curve: "c", KneeX: 4, MaxFrac: 0.49}, "", false},
		{"knee fails flatness", Knee{Probe: "fab", Curve: "c", KneeX: 4, MaxFrac: 0.5, FlatTol: 0.24}, "", false},
		{"knee with nothing below it", Knee{Probe: "fab", Curve: "c", KneeX: 1, MaxFrac: 1}, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			detail, err := tc.check.Eval(d)
			if (err == nil) != tc.pass {
				t.Errorf("%s: detail %q, err %v; want pass=%v", tc.check.Describe(), detail, err, tc.pass)
			}
			if tc.describe != "" && tc.check.Describe() != tc.describe {
				t.Errorf("Describe() = %q, want %q", tc.check.Describe(), tc.describe)
			}
		})
	}
}
