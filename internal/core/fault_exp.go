package core

import (
	"fmt"

	"cellbe/internal/fault"
)

// FaultRatesBp is the injected fault probability sweep of the fault-sweep
// experiment, in basis points (1 bp = 0.01%). The range spans "healthy"
// through "one fault every ~20 commands", which is where the canonical
// scenarios visibly degrade without wedging.
var FaultRatesBp = []int{0, 10, 50, 100, 250, 500}

// faultScenarios are the four canonical workloads the degradation curves
// are measured on (the same set the acceptance run drives).
var faultScenarios = []SweepSpec{
	{Scenario: "pair", SPEs: 2, Op: "get", Chunks: []int{4096}},
	{Scenario: "couples", SPEs: 8, Op: "get", Chunks: []int{4096}},
	{Scenario: "cycle", SPEs: 8, Op: "get", Chunks: []int{4096}},
	{Scenario: "mem", SPEs: 8, Op: "get", Chunks: []int{4096}},
}

// faultConfigAt scales the combined fault mix to a single probability knob:
// every fault class fires with the same per-decision rate, so the x axis
// reads "probability that any given decision point misbehaves".
func faultConfigAt(bp int) fault.Config {
	rate := float64(bp) / 10000
	return fault.Config{
		MFCRetryRate:  rate,
		XDRStallRate:  rate,
		EIBSlowRate:   rate,
		EIBOutageRate: rate,
		DoneDelayRate: rate,
	}
}

// FaultSweep measures aggregate bandwidth of the four canonical scenarios
// as the injected fault rate rises: graceful degradation made visible. At
// rate 0 the curves reproduce the healthy figures; every faulty point runs
// under the watchdog and the conservation check, so a fault model that
// loses bytes or wedges a kernel fails the experiment instead of printing
// a quietly wrong curve.
func FaultSweep(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fault-sweep",
		Title:  "Extension: bandwidth under injected faults (MFC retry, XDR stall, EIB slow/outage, late completion)",
		XLabel: "fault rate (basis points)",
		YLabel: "GB/s",
	}
	var labels []string
	var specs []SweepSpec
	for _, spec := range faultScenarios {
		for _, bp := range FaultRatesBp {
			// FaultSeed 0 derives each point's fault stream from its
			// layout seed, so run r sweeps fault patterns alongside
			// layouts and the experiment stays byte-reproducible.
			base := p.config()
			base.Faults = faultConfigAt(bp)
			base.FaultSeed = 0
			spec.Base = &base
			labels = append(labels, fmt.Sprintf("%s %dbp", spec.Scenario, bp))
			specs = append(specs, spec)
		}
	}
	curves, err := p.Curves(labels, specs...)
	if err != nil {
		return nil, err
	}
	for i, spec := range faultScenarios {
		n := len(FaultRatesBp)
		res.Curves = append(res.Curves, pointsAt(spec.Scenario, FaultRatesBp, curves[i*n:(i+1)*n]))
	}
	return res, nil
}
