// Package locksafe guards the service tier's concurrency discipline
// (internal/store, internal/service, internal/lru):
//
//  1. A mutex must not be held across a blocking channel send or
//     receive, a sync.WaitGroup.Wait, or a call into internal/parallel
//     — any of these under a lock can deadlock the daemon or serialize
//     the worker pool behind one critical section. Non-blocking channel
//     operations (inside a select with a default clause) are fine; they
//     are exactly how the job queue applies backpressure under its lock.
//  2. Lock-containing values (sync.Mutex, RWMutex, WaitGroup, Once,
//     Cond, Pool, Map — directly or embedded by value) must not be
//     copied: no value receivers, no by-value parameters, no
//     assignments from existing values, no by-value range variables.
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
	Doc:  "no blocking channel ops or parallel calls under a mutex; no lock-by-value copies",
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
	checkCopies(pass)
	return nil
}

// --- rule 1: blocking work under a held mutex ---------------------------

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

// --- rule 2: lock-by-value copies ---------------------------------------

func checkCopies(pass *framework.Pass) {
	framework.EnclosingFuncs(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			t := pass.TypeOf(fd.Recv.List[0].Type)
			if t != nil && !isPointer(t) && framework.ContainsLock(t) {
				pass.Reportf(fd.Recv.Pos(), "method %s copies its lock-containing receiver; use a pointer receiver", fd.Name.Name)
			}
		}
		for _, field := range fd.Type.Params.List {
			t := pass.TypeOf(field.Type)
			if t != nil && !isPointer(t) && framework.ContainsLock(t) {
				pass.Reportf(field.Pos(), "parameter of %s passes a lock-containing value; pass a pointer", fd.Name.Name)
			}
		}
	})
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, rhs := range x.Rhs {
					checkCopyExpr(pass, rhs)
				}
			case *ast.RangeStmt:
				if x.Value != nil {
					t := pass.TypeOf(x.Value)
					// A `for _, v := range` value is a definition, not a use;
					// its type lives in Defs rather than the Types map.
					if t == nil {
						if id, ok := x.Value.(*ast.Ident); ok {
							if obj := pass.Info.Defs[id]; obj != nil {
								t = obj.Type()
							}
						}
					}
					if t != nil && framework.ContainsLock(t) {
						pass.Reportf(x.Value.Pos(), "range copies lock-containing values; iterate by index or pointer")
					}
				}
			case *ast.CallExpr:
				for _, arg := range x.Args {
					checkCopyExpr(pass, arg)
				}
			}
			return true
		})
	}
}

// checkCopyExpr flags expressions that copy an existing lock-containing
// value: a plain variable/field/deref read of such a type. Composite
// literals and calls construct fresh values and are fine.
func checkCopyExpr(pass *framework.Pass, expr ast.Expr) {
	switch ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return
	}
	t := pass.TypeOf(expr)
	if t == nil || isPointer(t) {
		return
	}
	if framework.ContainsLock(t) {
		pass.Reportf(expr.Pos(), "copies a lock-containing value of type %s; use a pointer", t)
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
