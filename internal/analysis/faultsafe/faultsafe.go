// Package faultsafe keeps fault injection out of the zero-alloc hot
// path: no failpoint (repro/internal/fault) call may appear inside a
// //hatt:noalloc function. A disarmed failpoint is a single atomic load
// — but that is still a load and a branch the kernels must not pay, and
// an armed plan would make a "zero-cost" function allocate, sleep, or
// error. Chaos belongs at the service and store seams, where
// failure is part of the contract; inside a kernel a failpoint is a
// correctness bug waiting for the first armed plan.
package faultsafe

import (
	"go/ast"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/noalloc"
)

// Analyzer is the faultsafe pass. Like noalloc it has no package scope:
// the //hatt:noalloc annotation is what brings a function into scope,
// wherever it lives.
var Analyzer = &framework.Analyzer{
	Name: "faultsafe",
	Doc:  "flag failpoint (internal/fault) calls inside //hatt:noalloc functions",
	Run:  run,
}

// faultPkg is the failpoint package whose calls are banned inside
// zero-alloc kernels.
const faultPkg = "repro/internal/fault"

func run(pass *framework.Pass) error {
	framework.EnclosingFuncs(pass.Files, func(fd *ast.FuncDecl) {
		if !framework.HasDirective(fd.Doc, noalloc.Directive) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.CalleeFunc(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != faultPkg {
				return true
			}
			pass.Reportf(call.Pos(), "failpoint fault.%s called inside //hatt:noalloc %s; fault injection is banned in zero-alloc kernels",
				fn.Name(), fd.Name.Name)
			return true
		})
	})
	return nil
}
