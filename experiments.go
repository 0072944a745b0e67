package cllm

import (
	"runtime"

	"cllm/internal/harness"
)

// ExperimentInfo describes one reproducible paper artifact.
type ExperimentInfo struct {
	// ID is the handle passed to RunExperiment (e.g. "fig4", "table1").
	ID string
	// Title describes the experiment configuration.
	Title string
	// Paper summarizes what the paper reports for this artifact.
	Paper string
}

// Experiments lists every registered paper table/figure reproduction.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range harness.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	return out
}

// ExperimentReport is a rendered experiment result.
type ExperimentReport struct {
	ID string
	// Table is the rendered text table with measured and paper values.
	Table string
	// Passed reports whether all shape checks against the paper held.
	Passed bool
	// FailedChecks lists the names of failed shape checks, if any.
	FailedChecks []string
}

// RunExperiment executes one paper artifact reproduction. Quick mode
// shortens generations for fast runs; seeds are fixed for reproducibility.
// Every experiment spreads its independent simulation runs over the CPUs
// and merges them in a fixed order, so the report is identical to a
// serial run (the harness tests assert it for every experiment).
func RunExperiment(id string, quick bool, seed int64) (*ExperimentReport, error) {
	e, err := harness.Lookup(id)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(harness.Options{Seed: seed, Quick: quick, Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	rep := &ExperimentReport{ID: id, Table: res.Render(), Passed: res.Passed()}
	for _, c := range res.Checks {
		if !c.Pass {
			rep.FailedChecks = append(rep.FailedChecks, c.Name)
		}
	}
	return rep, nil
}
