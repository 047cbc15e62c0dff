// Package suite assembles the dgp-lint analyzer set. cmd/dgp-lint and any
// future driver consume the suite from here.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/allocguard"
	"repro/internal/analysis/bitsize"
	"repro/internal/analysis/emitorder"
	"repro/internal/analysis/machinepurity"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/seededrand"
	"repro/internal/analysis/seqmono"
	"repro/internal/analysis/slabalias"
	"repro/internal/analysis/wraperrcheck"
)

// All returns every analyzer in the dgp-lint suite, in reporting order:
// the five AST-pattern checks from the original suite and the four
// dataflow checks (allocguard, emitorder, seqmono, slabalias) built on
// internal/analysis/dataflow.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		allocguard.Analyzer,
		bitsize.Analyzer,
		emitorder.Analyzer,
		machinepurity.Analyzer,
		maporder.Analyzer,
		seededrand.Analyzer,
		seqmono.Analyzer,
		slabalias.Analyzer,
		wraperrcheck.Analyzer,
	}
}
