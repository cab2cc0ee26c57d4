package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const nolintSrc = `package p

func a() int {
	return 1 //nolint:check // justified because test
}

func b() int {
	return 2 //nolint:check
}

func c() int {
	//nolint:check // directive-only line covers the next
	return 3
}

func d() int {
	return 4 //nolint:other // different analyzer
}

func e() int {
	return 5 //nolint:all // suppress every analyzer here
}

func g() int {
	return 6 //nolint:check //
}
`

// TestNolintSuppression pins the directive contract: a reason trailer is
// mandatory (bare directives and empty `//` trailers do NOT suppress), a
// directive-only line covers the line below it, analyzer names must match,
// and `all` suppresses any analyzer.
func TestNolintSuppression(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", nolintSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}

	a := &Analyzer{Name: "check"}
	var diags []Diagnostic
	pass := NewPass(a, fset, []*ast.File{f}, nil, nil, nil, nil, &diags)

	// One report per function, on its return-statement line.
	reportLines := map[int]string{
		4:  "a: justified nolint suppresses",
		8:  "b: bare nolint must NOT suppress",
		13: "c: directive-only line above suppresses",
		17: "d: wrong analyzer name must NOT suppress",
		21: "e: nolint:all suppresses",
		25: "g: empty reason trailer must NOT suppress",
	}
	tf := fset.File(f.Pos())
	for line, label := range reportLines {
		pass.Reportf(tf.LineStart(line), "%s", label)
	}

	got := make(map[string]bool)
	for _, d := range diags {
		got[d.Message] = true
	}
	for line, label := range reportLines {
		suppressed := line == 4 || line == 13 || line == 21
		if suppressed == got[label] {
			t.Errorf("line %d (%s): suppressed=%v, want %v", line, label, !got[label], suppressed)
		}
	}
}
