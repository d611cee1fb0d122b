package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{3, 1, 4, 1, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary %+v", s)
	}
	if math.Abs(s.Mean-2.8) > 1e-9 {
		t.Fatalf("mean %v, want 2.8", s.Mean)
	}
	if s.Median != 3 {
		t.Fatalf("median %v, want 3", s.Median)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Median != 2.5 {
		t.Fatalf("median %v, want 2.5", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.Median != 7 || s.Stddev != 0 {
		t.Fatalf("bad single-sample summary %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample set should panic")
		}
	}()
	Summarize(nil)
}

func TestSpread(t *testing.T) {
	if got := Summarize([]float64{2, 9, 4}).Spread(); got != 7 {
		t.Fatalf("spread %v, want 7", got)
	}
}

// Properties: min <= median <= max, min <= mean <= max, and summarizing a
// constant sample gives zero stddev.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileExtremes(t *testing.T) {
	xs := []float64{7, 1, 5, 3}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v, want the minimum 1", got)
	}
	if got := Percentile(xs, 100); got != 7 {
		t.Errorf("P100 = %v, want the maximum 7", got)
	}
}

func TestPercentileSingle(t *testing.T) {
	for _, p := range []float64{0, 33.3, 50, 100} {
		if got := Percentile([]float64{42}, p); got != 42 {
			t.Errorf("P%v of a single sample = %v, want 42", p, got)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Errorf("P25 of {0,10} = %v, want 2.5 (linear interpolation)", got)
	}
}

func TestPercentileMatchesMedian(t *testing.T) {
	for _, xs := range [][]float64{{3, 1, 2}, {4, 1, 3, 2}, {5}, {2, 2, 2, 9}} {
		med := Summarize(xs).Median
		if got := Percentile(xs, 50); got != med {
			t.Errorf("P50(%v) = %v, want median %v", xs, got, med)
		}
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile of an empty set did not panic")
		}
	}()
	Percentile(nil, 50)
}

func TestPercentileRangePanics(t *testing.T) {
	for _, p := range []float64{-1, 100.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(p=%v) did not panic", p)
				}
			}()
			Percentile([]float64{1, 2}, p)
		}()
	}
}
