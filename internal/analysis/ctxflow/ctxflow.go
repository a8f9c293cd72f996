// Package ctxflow enforces the facade's cancellation contract in the
// packages that promise it (pkg/compiler, internal/core and
// internal/service):
//
//  1. No context.Background() or context.TODO() in library code — a
//     detached context severs the caller's cancellation and deadline.
//     Code that must legitimately outlive a request derives from the
//     caller with context.WithoutCancel, which the pass accepts.
//  2. An exported function that blocks — channel operations outside a
//     select with default, select without default, sync.WaitGroup.Wait /
//     sync.Cond.Wait, time.Sleep, ranging over a channel — must accept
//     a context.Context so callers can bound it.
//
// Nested function literals are inspected independently of their
// enclosing declaration: a goroutine body blocking on a channel does
// not make the spawning function itself blocking.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the ctxflow pass.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc:  "exported blocking APIs must accept a context; no context.Background/TODO in library paths",
	Scope: []string{
		"repro/pkg/compiler",
		"repro/internal/core",
		"repro/internal/service",
	},
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if pass.IsPkgCall(call, "context", "Background", "TODO") {
					fn := pass.CalleeFunc(call)
					pass.Reportf(call.Pos(), "context.%s() detaches library code from caller cancellation; propagate a ctx parameter (or context.WithoutCancel to outlive it deliberately)", fn.Name())
				}
			}
			return true
		})
	}
	framework.EnclosingFuncs(pass.Files, func(fd *ast.FuncDecl) {
		checkExportedBlocking(pass, fd)
	})
	return nil
}

// checkExportedBlocking flags exported functions that block without a
// context parameter.
func checkExportedBlocking(pass *framework.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || pass.HasCtxParam(fd.Type) {
		return
	}
	// Methods on unexported types are not part of the public API.
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if !exportedRecv(pass.TypeOf(fd.Recv.List[0].Type)) {
			return
		}
	}
	if what := blockingOp(pass, fd.Body); what != "" {
		pass.Reportf(fd.Pos(), "exported %s blocks (%s) but takes no context.Context", fd.Name.Name, what)
	}
}

func exportedRecv(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Exported()
	}
	return true
}

// blockingOp returns a description of the first blocking operation in
// the body, skipping nested function literals, or "".
func blockingOp(pass *framework.Pass, body *ast.BlockStmt) string {
	found := ""
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !framework.SelectHasDefault(x) {
				found = "select without default"
			}
			return false // comm clauses inside are accounted for by the select
		case *ast.SendStmt:
			found = "channel send"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = "channel receive"
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = "range over channel"
				}
			}
		case *ast.CallExpr:
			if pass.IsPkgCall(x, "time", "Sleep") {
				found = "time.Sleep"
				return false
			}
			if f := pass.CalleeFunc(x); f != nil && f.Name() == "Wait" && f.Pkg() != nil && f.Pkg().Path() == "sync" {
				found = "sync " + recvName(f) + ".Wait"
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return found
}

func recvName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name()
		}
	}
	return "?"
}
