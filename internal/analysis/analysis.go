// Package analysis is a self-contained static-analysis framework for the
// repository's domain checks (dgp-lint). It mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — so the
// analyzers can migrate to the upstream framework verbatim if the dependency
// ever becomes available, but it is built entirely on the standard library:
// packages are loaded with `go list -export` and type-checked through the
// gc export-data importer (see the load subpackage).
//
// Suppression: a diagnostic can be silenced with a justified directive
//
//	//lint:allow <analyzer> (reason)
//
// placed on the flagged line or on the line immediately above it. The reason
// is mandatory; a directive without one is itself a diagnostic, as is a
// directive for an analyzer that ran but flagged nothing there (stale
// suppressions must not accumulate).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	// Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards, shown by `dgp-lint -help`.
	Doc string
	// Run executes the check on one package and reports findings via
	// pass.Report / pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions for every file in Files.
	Fset *token.FileSet
	// Files are the package's parsed source files (tests excluded: dgp-lint
	// checks the shipped tree, and fixture packages never have test files).
	Files []*ast.File
	// Pkg is the package's type information.
	Pkg *types.Package
	// TypesInfo holds the type-checker's recordings for Files.
	TypesInfo *types.Info
	// report receives diagnostics.
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos is the finding's position.
	Pos token.Position
	// Message describes the violation and, where possible, the fix.
	Message string
}

// Report emits a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  msg,
	})
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// newPass assembles a Pass; RunPackages uses it to run one analyzer over
// one loaded package.
func newPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		report:    report,
	}
}
