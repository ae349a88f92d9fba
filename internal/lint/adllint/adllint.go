// Package adllint is the multichecker driver for the engine's custom
// analyzer suite: it loads packages (offline, via the go/analysis shim in
// internal/lint/analysis), applies every analyzer, honors //lint:adllint
// suppressions, and renders findings in the standard file:line:col format.
//
// Suppression syntax, parsed here rather than in the analyzers so every
// check gets it uniformly:
//
//	//lint:adllint <analyzer> <reason…>
//
// placed either at the end of the offending line or on a line of its own
// directly above it. The analyzer name must match, and a reason is
// required — a suppression documents WHY the finding is a false positive,
// or it is just a muted bug.
package adllint

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analyzers/atomicmeter"
	"repro/internal/lint/analyzers/batchimmutable"
	"repro/internal/lint/analyzers/closepropagate"
	"repro/internal/lint/analyzers/snapshotdiscipline"
)

// Exit codes, matching the driver-test contract.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one unsuppressed finding
	ExitError    = 2 // packages failed to load or an analyzer crashed
)

// Suite is the default analyzer set `make lint` runs.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		snapshotdiscipline.Analyzer,
		atomicmeter.Analyzer,
		closepropagate.Analyzer,
		batchimmutable.Analyzer,
	}
}

// finding is one rendered diagnostic.
type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

// Run loads the packages matching patterns (go list syntax, resolved from
// dir) and applies analyzers, writing findings to out. It returns one of
// the Exit* codes.
func Run(out io.Writer, dir string, analyzers []*analysis.Analyzer, patterns ...string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadPatterns(dir, patterns...)
	if err != nil {
		fmt.Fprintf(out, "adllint: %v\n", err)
		return ExitError
	}
	var findings []finding
	for _, pkg := range pkgs {
		sup := suppressions(pkg)
		for _, az := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  az,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Sizes:     analysis.Sizes(),
			}
			name := az.Name
			pass.Report = func(d analysis.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				if sup.covers(name, p) {
					return
				}
				findings = append(findings, finding{pos: p, analyzer: name, message: d.Message})
			}
			if _, err := az.Run(pass); err != nil {
				fmt.Fprintf(out, "adllint: analyzer %s failed on %s: %v\n", az.Name, pkg.PkgPath, err)
				return ExitError
			}
		}
	}
	if len(findings) == 0 {
		return ExitClean
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.analyzer < b.analyzer
	})
	for _, f := range findings {
		fmt.Fprintf(out, "%s:%d:%d: %s (%s)\n", f.pos.Filename, f.pos.Line, f.pos.Column, f.message, f.analyzer)
	}
	fmt.Fprintf(out, "adllint: %d finding(s)\n", len(findings))
	return ExitFindings
}

// suppressionSet records, per file, the lines each analyzer is muted on.
type suppressionSet map[string]map[int]map[string]bool

func (s suppressionSet) covers(analyzer string, p token.Position) bool {
	lines := s[p.Filename]
	if lines == nil {
		return false
	}
	return lines[p.Line][analyzer]
}

// suppressions parses //lint:adllint comments out of one package. A
// directive covers its own line (trailing-comment form) and the line below
// (standalone form). Directives without both an analyzer name and a reason
// are ignored — an undocumented suppression is not a suppression.
func suppressions(pkg *analysis.Package) suppressionSet {
	out := suppressionSet{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:adllint")
				if !ok {
					continue
				}
				parts := strings.Fields(text)
				if len(parts) < 2 {
					continue // analyzer name AND reason required
				}
				name := parts[0]
				p := pkg.Fset.Position(c.Pos())
				lines := out[p.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					out[p.Filename] = lines
				}
				for _, line := range []int{p.Line, p.Line + 1} {
					if lines[line] == nil {
						lines[line] = map[string]bool{}
					}
					lines[line][name] = true
				}
			}
		}
	}
	return out
}
