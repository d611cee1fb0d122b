package conformance

import (
	"fmt"

	"cellbe/internal/stats"
)

// Stat selects which statistic of a measured point (or curve) a Metric
// resolves to.
type Stat int

const (
	// Mean is the cross-run average at one x (the paper's headline stat).
	Mean Stat = iota
	// MinRun and MaxRun are the cross-run extremes at one x.
	MinRun
	MaxRun
	// Median is the cross-run median at one x.
	Median
	// Spread is MaxRun - MinRun at one x: the layout-placement variance
	// the paper's Figures 13 and 16 report.
	Spread
	// RobustSpread is the p90 - p10 interpercentile range of the runs at
	// one x: Spread without the single luckiest/unluckiest layout.
	RobustSpread
	// CurveMax and CurveMin are the extremes of the point means along the
	// whole curve (X is ignored); with Curve "*" they range over every
	// curve of the probe.
	CurveMax
	CurveMin
)

func (s Stat) String() string {
	switch s {
	case Mean:
		return "mean"
	case MinRun:
		return "min"
	case MaxRun:
		return "max"
	case Median:
		return "median"
	case Spread:
		return "spread"
	case RobustSpread:
		return "p90-p10"
	case CurveMax:
		return "curve-max"
	case CurveMin:
		return "curve-min"
	}
	return "?"
}

// Metric names one measurement of the dataset: a statistic of a probe's
// curve at an x position. The zero Stat is the cross-run mean.
type Metric struct {
	Probe string
	Curve string // curve label; "*" ranges over all curves (CurveMax/CurveMin only)
	X     int    // ignored by CurveMax/CurveMin
	Stat  Stat
}

func (m Metric) String() string {
	switch m.Stat {
	case CurveMax, CurveMin:
		return fmt.Sprintf("%s[%s].%v", m.Probe, m.Curve, m.Stat)
	}
	if m.Stat == Mean {
		return fmt.Sprintf("%s[%s]@%d", m.Probe, m.Curve, m.X)
	}
	return fmt.Sprintf("%s[%s]@%d.%v", m.Probe, m.Curve, m.X, m.Stat)
}

// Value resolves the metric against the dataset.
func (m Metric) Value(d *Dataset) (float64, error) {
	res, err := d.Result(m.Probe)
	if err != nil {
		return 0, err
	}
	if m.Stat == CurveMax || m.Stat == CurveMin {
		best := 0.0
		first := true
		for i := range res.Curves {
			c := &res.Curves[i]
			if m.Curve != "*" && c.Label != m.Curve {
				continue
			}
			for _, p := range c.Points {
				v := p.Summary.Mean
				if first || (m.Stat == CurveMax && v > best) || (m.Stat == CurveMin && v < best) {
					best, first = v, false
				}
			}
		}
		if first {
			return 0, fmt.Errorf("conformance: metric %v matches no points", m)
		}
		return best, nil
	}
	c := res.Curve(m.Curve)
	if c == nil {
		return 0, fmt.Errorf("conformance: probe %q has no curve %q", m.Probe, m.Curve)
	}
	for _, p := range c.Points {
		if p.X != m.X {
			continue
		}
		switch m.Stat {
		case Mean:
			return p.Summary.Mean, nil
		case MinRun:
			return p.Summary.Min, nil
		case MaxRun:
			return p.Summary.Max, nil
		case Median:
			return p.Summary.Median, nil
		case Spread:
			return p.Summary.Spread(), nil
		case RobustSpread:
			return stats.Percentile(p.Samples, 90) - stats.Percentile(p.Samples, 10), nil
		}
		return 0, fmt.Errorf("conformance: unknown stat %v", m.Stat)
	}
	return 0, fmt.Errorf("conformance: probe %q curve %q has no point at x=%d", m.Probe, m.Curve, m.X)
}

// Check is one executable guard of a claim. Eval returns a human-readable
// account of what was measured, plus an error when the check fails; an
// unresolvable metric (bad probe or curve name) is also an error, so a
// claim can never silently pass by measuring nothing.
type Check interface {
	Describe() string
	Eval(d *Dataset) (detail string, err error)
}

// Range asserts Min <= M <= Max: the measurement lands in an absolute
// window (a GB/s band, a bandwidth ceiling, a layout spread). A zero Max
// means unbounded above; a zero Min leaves only the upper bound to
// describe, as every metric here is non-negative.
type Range struct {
	M        Metric
	Min, Max float64
}

func (r Range) Describe() string {
	switch {
	case r.Max == 0:
		return fmt.Sprintf("%v >= %.1f", r.M, r.Min)
	case r.Min == 0:
		return fmt.Sprintf("%v <= %.1f", r.M, r.Max)
	}
	return fmt.Sprintf("%v in [%.1f, %.1f]", r.M, r.Min, r.Max)
}

func (r Range) Eval(d *Dataset) (string, error) {
	v, err := r.M.Value(d)
	if err != nil {
		return "", err
	}
	detail := fmt.Sprintf("%.2f", v)
	if v < r.Min || (r.Max > 0 && v > r.Max) {
		return detail, fmt.Errorf("out of range: want %s, measured %.3f", r.Describe(), v)
	}
	return detail, nil
}

// Ratio asserts Min <= Num/Den <= Max: two configurations relate by a
// bounded factor ("store is almost twice the load", "mem read equals L2
// read"). A zero Max means unbounded above.
type Ratio struct {
	Num, Den Metric
	Min, Max float64
}

func (r Ratio) Describe() string {
	if r.Max == 0 {
		return fmt.Sprintf("%v / %v >= %.2f", r.Num, r.Den, r.Min)
	}
	return fmt.Sprintf("%v / %v in [%.2f, %.2f]", r.Num, r.Den, r.Min, r.Max)
}

func (r Ratio) Eval(d *Dataset) (string, error) {
	num, err := r.Num.Value(d)
	if err != nil {
		return "", err
	}
	den, err := r.Den.Value(d)
	if err != nil {
		return "", err
	}
	if den == 0 {
		return "", fmt.Errorf("ratio denominator %v is zero", r.Den)
	}
	ratio := num / den
	detail := fmt.Sprintf("%.2f/%.2f = %.2f", num, den, ratio)
	if ratio < r.Min || (r.Max > 0 && ratio > r.Max) {
		return detail, fmt.Errorf("ratio out of range: want %s, measured %.3f", r.Describe(), ratio)
	}
	return detail, nil
}

// Knee asserts the degradation shape of a curve: every point below KneeX
// stays at most MaxFrac of the value at KneeX (small elements pay setup
// costs), and, when FlatTol is set, every point at or above KneeX stays
// within FlatTol (fractional) of the knee value (the curve has saturated).
type Knee struct {
	Probe, Curve string
	KneeX        int
	MaxFrac      float64
	FlatTol      float64 // 0 = do not check flatness above the knee
}

func (k Knee) Describe() string {
	return fmt.Sprintf("%s[%s] knees at %d (below <= %.2f x knee)", k.Probe, k.Curve, k.KneeX, k.MaxFrac)
}

func (k Knee) Eval(d *Dataset) (string, error) {
	res, err := d.Result(k.Probe)
	if err != nil {
		return "", err
	}
	c := res.Curve(k.Curve)
	if c == nil {
		return "", fmt.Errorf("conformance: probe %q has no curve %q", k.Probe, k.Curve)
	}
	knee, ok := res.At(k.Curve, k.KneeX)
	if !ok {
		return "", fmt.Errorf("conformance: curve %q has no knee point at x=%d", k.Curve, k.KneeX)
	}
	detail := fmt.Sprintf("knee %.2f at %d", knee.Mean, k.KneeX)
	below := 0
	for _, p := range c.Points {
		switch {
		case p.X < k.KneeX:
			below++
			if p.Summary.Mean > knee.Mean*k.MaxFrac {
				return detail, fmt.Errorf("no knee: %s[%s]@%d = %.3f exceeds %.2f x knee %.3f",
					k.Probe, k.Curve, p.X, p.Summary.Mean, k.MaxFrac, knee.Mean)
			}
		case p.X > k.KneeX && k.FlatTol > 0:
			if diff := p.Summary.Mean - knee.Mean; diff > knee.Mean*k.FlatTol || diff < -knee.Mean*k.FlatTol {
				return detail, fmt.Errorf("not flat past the knee: %s[%s]@%d = %.3f vs knee %.3f",
					k.Probe, k.Curve, p.X, p.Summary.Mean, knee.Mean)
			}
		}
	}
	if below == 0 {
		return detail, fmt.Errorf("conformance: curve %q has no points below the knee %d", k.Curve, k.KneeX)
	}
	return detail, nil
}
