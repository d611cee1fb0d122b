// Package report renders experiment results as text tables, CSV, and
// simple ASCII charts, for the cellbench CLI and the EXPERIMENTS.md
// record.
package report

import (
	"fmt"
	"io"
	"strings"

	"cellbe/internal/core"
	"cellbe/internal/stats"
	"cellbe/internal/trace"
)

// csvField quotes a free-text CSV field per RFC 4180 when it contains a
// separator, quote or newline; clean fields pass through unchanged so
// the common output stays byte-identical.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// TimeseriesCSV writes a metrics-sampler timeseries (cellsim -metrics)
// as CSV: the header row names the columns ("cycle" first), then
// one row per sampling tick. Cycle counts print as integers, metric values
// with four decimals.
func TimeseriesCSV(w io.Writer, ts *trace.Timeseries) error {
	cols := make([]string, len(ts.Columns))
	for i, c := range ts.Columns {
		cols[i] = csvField(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range ts.Rows {
		var b strings.Builder
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			if i == 0 {
				fmt.Fprintf(&b, "%d", int64(v))
			} else {
				fmt.Fprintf(&b, "%.4f", v)
			}
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Table writes r as an aligned text table: one row per x value, one
// column group (avg) per curve.
func Table(w io.Writer, r *core.Result, full bool) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", r.Name, r.Title); err != nil {
		return err
	}
	headers := []string{r.XLabel}
	for _, c := range r.Curves {
		if full {
			headers = append(headers, c.Label+" min", c.Label+" max", c.Label+" med", c.Label+" avg")
		} else {
			headers = append(headers, c.Label)
		}
	}
	rows := [][]string{headers}
	for _, x := range xAxis(r) {
		row := []string{fmt.Sprintf("%d", x)}
		for _, c := range r.Curves {
			s, ok := pointAt(&c, x)
			if !ok {
				if full {
					row = append(row, "-", "-", "-", "-")
				} else {
					row = append(row, "-")
				}
				continue
			}
			if full {
				row = append(row,
					fmt.Sprintf("%.2f", s.Min), fmt.Sprintf("%.2f", s.Max),
					fmt.Sprintf("%.2f", s.Median), fmt.Sprintf("%.2f", s.Mean))
			} else {
				row = append(row, fmt.Sprintf("%.2f", s.Mean))
			}
		}
		rows = append(rows, row)
	}
	return writeAligned(w, rows)
}

// CSV writes r as comma-separated values with min/max/median/avg columns.
func CSV(w io.Writer, r *core.Result) error {
	if _, err := fmt.Fprintf(w, "experiment,curve,x,min,max,median,avg,stddev,n\n"); err != nil {
		return err
	}
	for _, c := range r.Curves {
		for _, p := range c.Points {
			s := p.Summary
			_, err := fmt.Fprintf(w, "%s,%s,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%d\n",
				csvField(r.Name), csvField(c.Label), p.X, s.Min, s.Max, s.Median, s.Mean, s.Stddev, s.N)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Chart writes a crude ASCII bar chart of the curves' averages, one block
// per curve — enough to eyeball the shape against the paper's figures.
func Chart(w io.Writer, r *core.Result, width int) error {
	if width <= 0 {
		width = 50
	}
	max := 0.0
	for _, c := range r.Curves {
		for _, p := range c.Points {
			if p.Summary.Mean > max {
				max = p.Summary.Mean
			}
		}
	}
	if max == 0 {
		max = 1
	}
	if _, err := fmt.Fprintf(w, "# %s (GB/s, full scale = %.1f)\n", r.Title, max); err != nil {
		return err
	}
	for _, c := range r.Curves {
		if _, err := fmt.Fprintf(w, "%s\n", c.Label); err != nil {
			return err
		}
		for _, p := range c.Points {
			n := int(p.Summary.Mean / max * float64(width))
			if _, err := fmt.Fprintf(w, "  %7d | %-*s %7.2f\n", p.X, width, strings.Repeat("#", n), p.Summary.Mean); err != nil {
				return err
			}
		}
	}
	return nil
}

// xAxis collects the union of x values over all curves, in first-seen
// order (curves share the axis in practice).
func xAxis(r *core.Result) []int {
	var xs []int
	seen := map[int]bool{}
	for _, c := range r.Curves {
		for _, p := range c.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	return xs
}

func pointAt(c *core.Curve, x int) (stats.Summary, bool) {
	for _, p := range c.Points {
		if p.X == x {
			return p.Summary, true
		}
	}
	return stats.Summary{}, false
}

func writeAligned(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
	}
	return nil
}
