package framework

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// CalleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, and dynamic calls through function values.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsPkgCall reports whether call invokes one of the named package-level
// functions (or methods) of the package with the given import path. An
// empty names list matches any function of the package.
func (p *Pass) IsPkgCall(call *ast.CallExpr, pkgPath string, names ...string) bool {
	f := p.CalleeFunc(call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// IsBuiltinCall reports whether call invokes the named builtin.
func (p *Pass) IsBuiltinCall(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.Builtin)
	return ok
}

// IsConversion reports whether call is a type conversion, returning the
// target type.
func (p *Pass) IsConversion(call *ast.CallExpr) (types.Type, bool) {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// ConstInt returns the value of expr when it is an integer constant.
func (p *Pass) ConstInt(expr ast.Expr) (int64, bool) {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// ConstString returns the value of expr when it is a string constant.
func (p *Pass) ConstString(expr ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// IsString reports whether expr has (possibly untyped) string type.
func (p *Pass) IsString(expr ast.Expr) bool {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// TypeOf returns the type of expr, or nil.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if tv, ok := p.Info.Types[expr]; ok {
		return tv.Type
	}
	return nil
}

// IsMapType reports whether expr ranges over / has a map type.
func (p *Pass) IsMapType(expr ast.Expr) bool {
	t := p.TypeOf(expr)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// NamedIn reports whether t (after stripping pointers) is the named
// type pkgPath.name.
func NamedIn(t types.Type, pkgPath string, names ...string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	for _, name := range names {
		if obj.Name() == name {
			return true
		}
	}
	return len(names) == 0
}

// EnclosingFuncs walks the file and calls fn for every function
// declaration with a body.
func EnclosingFuncs(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// HasCtxParam reports whether the function type carries a
// context.Context parameter.
func (p *Pass) HasCtxParam(ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if NamedIn(p.TypeOf(field.Type), "context", "Context") {
			return true
		}
	}
	return false
}

// SelectHasDefault reports whether a select statement has a default
// clause, i.e. its channel operations are non-blocking.
func SelectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// ContainsRecover reports whether the node's subtree (excluding nested
// function literals other than deferred ones' own bodies) calls
// recover(). Used to recognize panic safety nets.
func (p *Pass) ContainsRecover(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && p.IsBuiltinCall(call, "recover") {
			found = true
			return false
		}
		return true
	})
	return found
}
