package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// coveredFields gathers every (struct, field) selection reachable from n
// through functions and methods of the same package.
func coveredFields(a *Analysis, n *funcNode) map[string]bool {
	covered := make(map[string]bool)
	visited := make(map[*funcNode]bool)
	var visit func(*funcNode)
	visit = func(n *funcNode) {
		if n == nil || n.decl == nil || visited[n] {
			return
		}
		visited[n] = true
		info := n.pkg.Info
		ast.Inspect(n.decl, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
					recordSelection(covered, sel)
				}
			case *ast.Ident:
				// Follow calls (and references) to same-package functions
				// and methods, e.g. a Reset's helpers.
				if callee, ok := info.Uses[x].(*types.Func); ok && callee.Pkg() == n.pkg.Types {
					visit(a.graph().funcOf(callee))
				}
			}
			return true
		})
	}
	visit(n)
	return covered
}

// recordSelection records every field step along a (possibly embedded)
// field selection path.
func recordSelection(covered map[string]bool, sel *types.Selection) {
	t := sel.Recv()
	for _, idx := range sel.Index() {
		named := asNamedStruct(t)
		if named == nil {
			return
		}
		st := named.Underlying().(*types.Struct)
		if idx >= st.NumFields() {
			return
		}
		f := st.Field(idx)
		covered[fieldKey(named, f.Name())] = true
		t = f.Type()
	}
}

// asNamedStruct unwraps pointers and aliases down to a named type with a
// struct underlying, or nil.
func asNamedStruct(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// inModule reports whether the named type is declared inside the analyzed
// module (recursion stops at the standard library).
func inModule(mod *Module, named *types.Named) bool {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == mod.Path || strings.HasPrefix(pkg.Path(), mod.Path+"/")
}

// fieldKey names a struct field for diagnostics: "cpu.Config.MSHRs".
func fieldKey(named *types.Named, field string) string {
	return typeDisplay(named) + "." + field
}
