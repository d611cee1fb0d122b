// Package conformance machine-checks the repository's reproduction of the
// paper: every quantitative or qualitative statement EXPERIMENTS.md records
// ("DMA-list bandwidth is independent of element size", "the MIC caps one
// bank at 16.8 GB/s", "synchronizing every request loses 40% at 2 KB") is
// encoded as a typed claim — a Ratio, Range or Knee over named
// measurements — and evaluated against fresh simulator runs by
// `go test ./internal/conformance`. A Ratio bounds one measurement
// against another (an ordering is a Ratio with only a lower bound), a
// Range bounds one measurement absolutely (a ceiling or a spread limit
// is a Range with one side open), and a Knee bounds a curve's shape.
//
// The same claim data renders the EXPERIMENTS.md tables (see Doc), so the
// document and the test suite cannot diverge: a claim edit changes both,
// and TestExperimentsDocInSync fails when the checked-in file was not
// regenerated (`go generate .`).
//
// Claims deliberately assert the paper's physics (shapes, knees, ceilings,
// orderings, layout variance), not exact cycle counts — the determinism
// goldens in the repository root pin those. This split is what lets the
// simulator be refactored freely: a change may shift a bandwidth by a few
// percent and still conform, but it cannot silently flip a ✓ in the
// reproduction record to a ✗.
package conformance

import "fmt"

// Claim is one row of an EXPERIMENTS.md table: the paper's statement, the
// recorded measurement of the checked-in full run, the match verdict, and
// the executable checks that guard the statement.
type Claim struct {
	// ID names the claim for reports and test filters, e.g. "fig10/sync-every-loss".
	ID string
	// Label, Paper, Measured and Match are the table cells of the claim's
	// EXPERIMENTS.md row. Measured records the checked-in full-volume run;
	// the checks validate the claim's physics at quick-run parameters.
	Label    string
	Paper    string
	Measured string
	Match    string
	// Short marks the claim as part of the quick CI subset (-short).
	Short bool
	// Checks are the executable guards; all must pass.
	Checks []Check
}

// Outcome is the evaluation result of one claim.
type Outcome struct {
	Claim   *Claim
	Details []string // one human-readable line per check
	Err     error    // first failing check, nil when the claim holds
}

// Section is one figure's block of EXPERIMENTS.md: a heading, the claim
// table, and optional prose around it.
type Section struct {
	// Title is the markdown heading, e.g. "## Figure 3 — PPE to L1 cache".
	Title string
	// Header overrides the table column names; nil means the standard
	// {"", "Paper", "Measured", "Match"}. The ablations table uses three
	// columns, so its claims leave Match empty.
	Header []string
	// Claims are the table rows. A section with no claims renders as
	// prose only (its Footer).
	Claims []Claim
	// Footer is verbatim markdown after the table (mechanism notes).
	Footer string
}

// Claims returns every claim of every section, in document order.
func Claims() []*Claim {
	var out []*Claim
	for _, s := range sections {
		for i := range s.Claims {
			out = append(out, &s.Claims[i])
		}
	}
	return out
}

// Eval evaluates one claim against the dataset.
func Eval(c *Claim, d *Dataset) Outcome {
	out := Outcome{Claim: c}
	for _, ch := range c.Checks {
		detail, err := ch.Eval(d)
		out.Details = append(out.Details, fmt.Sprintf("%s: %s", ch.Describe(), detail))
		if err != nil && out.Err == nil {
			out.Err = fmt.Errorf("%s: %w", c.ID, err)
		}
	}
	return out
}

// EvalAll evaluates every claim (or only the Short subset) against d, in
// document order.
func EvalAll(d *Dataset, short bool) []Outcome {
	var out []Outcome
	for _, c := range Claims() {
		if short && !c.Short {
			continue
		}
		out = append(out, Eval(c, d))
	}
	return out
}
