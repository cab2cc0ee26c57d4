// Package analysistest runs an analyzer over a testdata mini-module and
// checks its findings against `// want "regexp"` comments, mirroring
// x/tools/go/analysis/analysistest. Each analyzer's testdata directory is a
// real module (its own go.mod, typically `module mobiledl` so stub packages
// can occupy the same import paths the analyzer matches on, e.g.
// mobiledl/internal/tensor).
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"mobiledl/tools/analyzers/analysis"
	"mobiledl/tools/analyzers/internal/load"
)

// wantRe matches one quoted expectation inside a `// want` comment; several
// may follow each other, each either double- or back-quoted:
// // want "first" `second`.
var wantRe = regexp.MustCompile("want((?:\\s+(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))+)")

var quotedRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one unmatched-so-far want pattern.
type expectation struct {
	re   *regexp.Regexp
	used bool
}

// wantIndex maps file -> line -> pending expectations.
type wantIndex map[string]map[int][]*expectation

// Run loads the module under testdata, applies a to every package matched by
// patterns (respecting a.AppliesTo, exactly as the driver does), and fails t
// unless findings and want-comments agree one-to-one.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, flags map[string]string, patterns ...string) {
	t.Helper()
	dir, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatalf("resolving %s: %v", testdata, err)
	}
	pkgs, fset, err := load.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading testdata: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %v under %s", patterns, dir)
	}

	uses := analysis.NewUses()
	for _, pkg := range pkgs {
		uses.Add(pkg.Path, pkg.Info)
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
			continue
		}
		pass := analysis.NewPass(a, fset, pkg.Files, pkg.Types, pkg.Info, flags, uses, &diags)
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
		}
	}
	analysis.SortDiagnostics(fset, diags)

	// Every loaded package's files carry expectations — including packages
	// outside a.AppliesTo, where a stray want-comment would mean the author
	// expected scoping the analyzer does not implement.
	expected := make(wantIndex)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			collectWants(t, fset, f, expected)
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, exp := range expected[pos.Filename][pos.Line] {
			if !exp.used && exp.re.MatchString(d.Message) {
				exp.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected finding: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for file, lines := range expected {
		for line, exps := range lines {
			for _, exp := range exps {
				if !exp.used {
					t.Errorf("%s:%d: expected finding matching %q, got none", filepath.Base(file), line, exp.re)
				}
			}
		}
	}
}

// collectWants records the `// want "..."` expectations of one file.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, out wantIndex) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Slash)
			for _, q := range quotedRe.FindAllString(m[1], -1) {
				var pat string
				var err error
				if q[0] == '`' {
					pat = q[1 : len(q)-1]
				} else if pat, err = strconv.Unquote(q); err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
				}
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*expectation)
					out[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], &expectation{re: re})
			}
		}
	}
}
