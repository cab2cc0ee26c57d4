// Package deadexport flags exported API under mobiledl/internal that only
// tests reach: functions, methods of exported types no interface keeps, and
// *Config/*Options fields, which need a non-test reference from outside
// their package (a setting only its own package sets is a constant).
package deadexport

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"mobiledl/tools/analyzers/analysis"
)

// Analyzer is the deadexport invariant check.
var Analyzer = &analysis.Analyzer{
	Name:      "deadexport",
	Doc:       "exported functions, methods and *Config/*Options fields under internal/ need a non-test reference",
	AppliesTo: func(path string) bool { return analysis.PathHasPrefix(path, "mobiledl/internal") },
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkFunc(pass, n)
				return false // local types are not API
			case *ast.TypeSpec:
				checkSettings(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	fn := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	k := pass.Uses.Key(fn)
	switch {
	case !fd.Name.IsExported() || len(pass.Uses.Objects[k]) > 0:
	case fd.Recv == nil:
		pass.Reportf(fd.Name.Pos(), "exported function %s has no non-test reference", k.Name)
	case ast.IsExported(k.Recv) && !satisfiesIface(pass.Uses, fn):
		pass.Reportf(fd.Name.Pos(), "exported method %s.%s has no non-test reference", k.Recv, k.Name)
	}
}

// satisfiesIface reports whether fn's receiver type has every method of a
// mentioned interface carrying fn's name. It compares names: an interface
// from export data shares no types.Objects with source-checked types.
func satisfiesIface(uses *analysis.Uses, fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	for _, names := range uses.Ifaces {
		carries, all := false, true
		for _, n := range names {
			carries = carries || n == fn.Name()
			all = all && mset.Lookup(fn.Pkg(), n) != nil
		}
		if carries && all {
			return true
		}
	}
	return false
}

func checkSettings(pass *analysis.Pass, ts *ast.TypeSpec) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok || !ts.Name.IsExported() ||
		!strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
		return
	}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			k := pass.Uses.Key(pass.TypesInfo.Defs[name])
			outside := slices.ContainsFunc(pass.Uses.Objects[k], func(from string) bool { return from != pass.Pkg.Path() })
			if name.IsExported() && !outside {
				pass.Reportf(name.Pos(), "field %s.%s has no non-test reference outside package %s",
					ts.Name.Name, name.Name, pass.Pkg.Name())
			}
		}
	}
}
