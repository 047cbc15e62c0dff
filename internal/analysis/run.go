package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analysis/load"
)

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	file      string
	line      int
	analyzer  string
	reason    string
	used      bool
	malformed string // non-empty: why the directive is unusable
}

var allowRE = regexp.MustCompile(`^lint:allow\s+([A-Za-z0-9_-]+)\s*(?:\((.*)\))?\s*$`)

// Run loads patterns relative to dir and applies every analyzer, returning
// the surviving diagnostics sorted by position. Suppressions
// (//lint:allow <analyzer> (reason), on the flagged line or the line above)
// are honoured; malformed or unused directives are themselves reported.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, analyzers)
}

// RunPackages applies every analyzer to every loaded package. Exposed for
// the analysistest harness, which loads fixture packages itself.
func RunPackages(pkgs []*load.Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		directives := collectAllows(pkg)
		var diags []Diagnostic
		sink := func(d Diagnostic) { diags = append(diags, d) }
		for _, a := range analyzers {
			pass := newPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo, sink)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
		all = append(all, applyAllows(diags, directives, ran)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// collectAllows parses every //lint:allow directive in the package.
func collectAllows(pkg *load.Package) []*allowDirective {
	var out []*allowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments don't carry directives
				}
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &allowDirective{file: pos.Filename, line: pos.Line}
				m := allowRE.FindStringSubmatch(text)
				switch {
				case m == nil:
					d.malformed = "cannot parse directive"
				case strings.TrimSpace(m[2]) == "":
					d.analyzer = m[1]
					d.malformed = "missing (reason): every suppression must say why the violation is acceptable"
				default:
					d.analyzer = m[1]
					d.reason = strings.TrimSpace(m[2])
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// applyAllows drops diagnostics matched by a well-formed directive on the
// same or preceding line, then reports directive problems: malformed
// directives always, unused ones when their analyzer actually ran.
func applyAllows(diags []Diagnostic, directives []*allowDirective, ran map[string]bool) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, dir := range directives {
			if dir.malformed != "" || dir.analyzer != d.Analyzer || dir.file != d.Pos.Filename {
				continue
			}
			if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, dir := range directives {
		switch {
		case dir.malformed != "":
			kept = append(kept, Diagnostic{
				Analyzer: "lintdirective",
				Pos:      position(dir),
				Message:  fmt.Sprintf("malformed //lint:allow directive: %s", dir.malformed),
			})
		case !dir.used && ran[dir.analyzer]:
			kept = append(kept, Diagnostic{
				Analyzer: "lintdirective",
				Pos:      position(dir),
				Message:  fmt.Sprintf("unused //lint:allow %s directive: nothing to suppress here", dir.analyzer),
			})
		}
	}
	return kept
}

func position(d *allowDirective) (p token.Position) {
	p.Filename = d.file
	p.Line = d.line
	p.Column = 1
	return p
}

// Inspect walks every file of the pass with fn (ast.Inspect semantics).
func Inspect(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, fn)
	}
}
