package analysis

import (
	"go/types"
	"strings"
)

// ObjKey names an object alike from source and from export data: import
// path, owning type (receiver or struct; "" at package level) and name.
type ObjKey struct{ Pkg, Recv, Name string }

// Uses is what the loaded non-test files reference: objects with the import
// path of each reference, and the method sets of the interfaces they mention
// plus error and fmt.Stringer, which fmt calls unmentioned.
type Uses struct {
	Objects map[ObjKey][]string
	Ifaces  map[string][]string // method names (sorted by go/types), keyed by their join

	owners map[*types.Package]map[*types.Var]string
}

// NewUses returns an empty set; Add each loaded package to it.
func NewUses() *Uses {
	return &Uses{
		Objects: map[ObjKey][]string{},
		Ifaces:  map[string][]string{"Error": {"Error"}, "String": {"String"}},
		owners:  map[*types.Package]map[*types.Var]string{},
	}
}

// Add records the references of one type-checked package.
func (u *Uses) Add(pkgPath string, info *types.Info) {
	for _, obj := range info.Uses {
		k := u.Key(obj)
		u.Objects[k] = append(u.Objects[k], pkgPath)
	}
	for _, tv := range info.Types {
		u.addIface(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for i := range sig.Params().Len() {
				u.addIface(sig.Params().At(i).Type())
			}
		}
	}
}

func (u *Uses) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		names := make([]string, it.NumMethods())
		for i := range names {
			names[i] = it.Method(i).Name()
		}
		u.Ifaces[strings.Join(names, ",")] = names
	}
}

// Key returns obj's ObjKey (Pkg is "" for universe objects).
func (u *Uses) Key(obj types.Object) ObjKey {
	k := ObjKey{Name: obj.Name()}
	if obj.Pkg() != nil {
		k.Pkg = obj.Pkg().Path()
	}
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				k.Recv = n.Origin().Obj().Name()
			}
		}
	case *types.Var:
		if o.IsField() && o.Pkg() != nil {
			k.Recv = u.owner(o.Origin())
		}
	}
	return k
}

// owner names the package-level struct type that declares field v.
func (u *Uses) owner(v *types.Var) string {
	if u.owners[v.Pkg()] == nil {
		byVar := map[*types.Var]string{}
		scope := v.Pkg().Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := range st.NumFields() {
						byVar[st.Field(i)] = name
					}
				}
			}
		}
		u.owners[v.Pkg()] = byVar
	}
	return u.owners[v.Pkg()][v]
}
