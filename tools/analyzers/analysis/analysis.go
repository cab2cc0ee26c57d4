// Package analysis is a deliberately small, zero-dependency stand-in for
// golang.org/x/tools/go/analysis: just enough Analyzer/Pass surface for the
// invariant suite in this module. The container this repo builds in has no
// module proxy access, so instead of importing x/tools the suite carries its
// own ~200-line framework over the stdlib go/ast + go/types packages; the
// loader in internal/load supplies fully type-checked packages via
// `go list -export` export data.
//
// The shape mirrors the real package on purpose — an analyzer written here
// ports to x/tools/go/analysis by swapping imports and dropping AppliesTo.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //nolint:<name>
	// directives. Lowercase, no spaces.
	Name string

	// Doc is the one-paragraph description printed by `analyze -help`.
	Doc string

	// AppliesTo reports whether the analyzer should run on the package
	// with the given import path. nil means every package.
	AppliesTo func(pkgPath string) bool

	// Run performs the check and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Flags holds per-analyzer options from the driver (for example the
	// nowallclock allowlist path), keyed by option name.
	Flags map[string]string
	// Uses is what the non-test code of every loaded package references.
	Uses *Uses

	diags *[]Diagnostic
	nolin *nolintIndex
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// NewPass assembles a pass over pkg for a; diagnostics accumulate into sink.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, flags map[string]string, uses *Uses, sink *[]Diagnostic) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Flags:     flags,
		Uses:      uses,
		diags:     sink,
	}
}

// Reportf records a finding unless a justified //nolint:<name> directive on
// the same line (or on a directive-only line immediately above) suppresses
// it. A //nolint directive with no `// reason` trailer does NOT suppress —
// every escape must say why.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.nolin == nil {
		p.nolin = buildNolintIndex(p.Fset, p.Files)
	}
	if p.nolin.suppresses(p.Analyzer.Name, p.Fset.Position(pos)) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// SortDiagnostics orders findings by file position for stable output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// PathHasPrefix reports whether pkg equals prefix or sits beneath it
// (segment-wise, so "a/bc" does not match prefix "a/b").
func PathHasPrefix(pkg, prefix string) bool {
	if pkg == prefix {
		return true
	}
	return len(pkg) > len(prefix) && pkg[:len(prefix)] == prefix && pkg[len(prefix)] == '/'
}
