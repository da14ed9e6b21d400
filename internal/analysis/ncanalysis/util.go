package ncanalysis

import (
	"go/ast"
	"go/types"
)

// CalleeOf resolves the static callee of a call expression, looking through
// parentheses. It returns nil for calls through function-typed values,
// built-ins, and type conversions.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsFunc reports whether fn is the named function or method of the package
// with the given import path. Methods match on their bare name regardless of
// receiver, which is what nclint's API-shaped checks want ("any AddBatch on
// an rlnc type").
func IsFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	pkg := fn.Pkg()
	return pkg != nil && pkg.Path() == pkgPath
}

// IsBuiltin reports whether the call invokes the named built-in (append,
// make, new, ...).
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() == nil && obj.Name() == "error"
}
