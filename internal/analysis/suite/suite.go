// Package suite aggregates the sbvet analyzers into the one list
// cmd/sbvet, make lint, and the self-check smoke test all share, so
// "the suite" cannot mean different things in different drivers.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/admitflow"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/ctxdrain"
	"repro/internal/analysis/facadeexport"
	"repro/internal/analysis/hookorder"
	"repro/internal/analysis/snapshotonce"
	"repro/internal/analysis/statscomplete"
	"repro/internal/analysis/tokenizeonce"
)

// Analyzers is the full sbvet suite: the four intraprocedural checks
// from the first round, then the four interprocedural call-graph
// checks.
var Analyzers = []*analysis.Analyzer{
	snapshotonce.Analyzer,
	statscomplete.Analyzer,
	ctxdrain.Analyzer,
	tokenizeonce.Analyzer,
	admitflow.Analyzer,
	hookorder.Analyzer,
	facadeexport.Analyzer,
	atomicfield.Analyzer,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// CheckModule runs the whole suite over the module rooted at root —
// the exact code path cmd/sbvet executes, exported so the self-check
// test and the binary cannot drift.
func CheckModule(root string, patterns ...string) ([]analysis.Finding, error) {
	l, err := analysis.NewModuleLoader(root)
	if err != nil {
		return nil, err
	}
	return analysis.Check(l, Analyzers, patterns...)
}
