// Package locksafe guards the service tier's concurrency discipline
// (internal/store, internal/service, internal/lru): a mutex must not
// be held across a blocking channel send or receive, a
// sync.WaitGroup.Wait, or a call into internal/parallel — any of these
// under a lock can deadlock the daemon or serialize the worker pool
// behind one critical section. Non-blocking channel operations (inside
// a select with a default clause) are fine; they are exactly how the
// job queue applies backpressure under its lock. Copies of
// lock-containing values are go vet's copylocks check, which runs on
// every package.
//
// Lock tracking is a straight-line approximation: Lock()/Unlock() pairs
// are followed through nested blocks, a deferred Unlock holds to the
// end of the function, and branch-local state does not escape its
// branch. That is precise enough for the tier's lock idioms, which
// keep critical sections block-shaped.
package locksafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the locksafe pass.
var Analyzer = &framework.Analyzer{
	Name: "locksafe",
	Doc:  "no blocking channel ops or parallel calls under a mutex",
	Scope: []string{
		"repro/internal/store",
		"repro/internal/service",
		"repro/internal/lru",
	},
	Run: run,
}

func run(pass *framework.Pass) error {
	framework.EnclosingFuncs(pass.Files, func(fd *ast.FuncDecl) {
		checkHeldLocks(pass, fd)
	})
	return nil
}

// lockExpr renders the receiver of a Lock/Unlock call as a stable key
// ("m.mu", "j.mu", …).
func lockExpr(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return lockExpr(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return lockExpr(x.X)
	case *ast.IndexExpr:
		return lockExpr(x.X) + "[]"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// mutexMethod recognizes a call X.Lock/RLock/Unlock/RUnlock on a sync
// mutex and returns the lock key and method name.
func mutexMethod(pass *framework.Pass, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	f, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch f.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return lockExpr(sel.X), f.Name(), true
	}
	return "", "", false
}

func checkHeldLocks(pass *framework.Pass, fd *ast.FuncDecl) {
	held := map[string]token.Pos{}
	scanStmts(pass, fd, fd.Body.List, held)
}

// scanStmts walks a statement list tracking the held-lock set.
// Branch bodies are scanned with a copy of the entry state.
func scanStmts(pass *framework.Pass, fd *ast.FuncDecl, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, method, ok := mutexMethod(pass, call); ok {
					switch method {
					case "Lock", "RLock":
						held[key] = call.Pos()
					case "Unlock", "RUnlock":
						delete(held, key)
					}
					continue
				}
			}
			checkUnderLocks(pass, fd, s, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() holds the lock to function end: leave it
			// in the held set. Anything else deferred runs later; skip.
			continue
		case *ast.BlockStmt:
			scanStmts(pass, fd, s.List, held)
		case *ast.IfStmt:
			checkUnderLocks(pass, fd, s.Cond, held)
			scanStmts(pass, fd, s.Body.List, copyHeld(held))
			if s.Else != nil {
				scanStmts(pass, fd, []ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			scanStmts(pass, fd, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			scanStmts(pass, fd, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			checkUnderLocks(pass, fd, s, held)
		case *ast.SelectStmt:
			if len(held) > 0 && !framework.SelectHasDefault(s) {
				report(pass, fd, s.Pos(), "blocking select", held)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanStmts(pass, fd, cc.Body, copyHeld(held))
				}
			}
		default:
			checkUnderLocks(pass, fd, stmt, held)
		}
	}
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// checkUnderLocks flags blocking constructs inside node while any lock
// is held.
func checkUnderLocks(pass *framework.Pass, fd *ast.FuncDecl, node ast.Node, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !framework.SelectHasDefault(x) {
				report(pass, fd, x.Pos(), "blocking select", held)
			}
			return false
		case *ast.SendStmt:
			report(pass, fd, x.Pos(), "channel send", held)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				report(pass, fd, x.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if pass.IsPkgCall(x, "repro/internal/parallel") {
				report(pass, fd, x.Pos(), "call into internal/parallel", held)
			} else if f := pass.CalleeFunc(x); f != nil && f.Name() == "Wait" && f.Pkg() != nil && f.Pkg().Path() == "sync" {
				report(pass, fd, x.Pos(), "sync Wait", held)
			}
		}
		return true
	})
}

func report(pass *framework.Pass, fd *ast.FuncDecl, pos token.Pos, what string, held map[string]token.Pos) {
	for key := range held {
		pass.Reportf(pos, "%s while %s is held in %s; shrink the critical section", what, key, fd.Name.Name)
		return // one representative lock keeps the message stable
	}
}
