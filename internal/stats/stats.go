// Package stats provides the small summary statistics the paper reports:
// minimum, maximum, median, and average bandwidth across repeated runs
// with different logical-to-physical SPE mappings.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the aggregate of a sample set.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	Stddev float64
}

// Summarize computes a Summary of xs. It panics on an empty sample set:
// callers always control the run count.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample set")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(xs)))
	return s
}

// Spread returns Max - Min.
func (s Summary) Spread() float64 { return s.Max - s.Min }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks, so Percentile(xs, 50) agrees with
// the median and p=0/p=100 return the extremes. It panics on an empty
// sample set or a p outside [0, 100]: callers always control both.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: empty sample set")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v outside [0, 100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// String renders the summary in GB/s with the paper's fields.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.2f max=%.2f med=%.2f avg=%.2f (n=%d)", s.Min, s.Max, s.Median, s.Mean, s.N)
}
