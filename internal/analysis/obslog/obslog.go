// Package obslog holds the service layer to the structured logging
// contract: every operational event goes through log/slog (the
// one sink -log-level and -log-format configure, and the only one that
// attaches trace_id/span_id correlation attrs), never through ad-hoc
// prints.
//
// Banned in scope: fmt.Print/Printf/Println (unstructured, no level, no
// trace correlation) and the whole legacy log package surface —
// log.Print*, log.Fatal* (which also exits the daemon from library
// code), and log.Panic*. fmt.Sprintf/Errorf/Fprintf remain fine: they
// build values rather than emit log lines. The hattd/hattc binaries
// stay out of scope on purpose — their few stdout lines (listen
// address, drain notices) are machine-read plain-text contracts, not
// logs.
package obslog

import (
	"go/ast"

	"repro/internal/analysis/framework"
)

// Analyzer is the obslog pass.
var Analyzer = &framework.Analyzer{
	Name:  "obslog",
	Doc:   "service code logs through log/slog only, never fmt.Print* or log.Print*",
	Scope: []string{"repro/internal/service"},
	Run:   run,
}

// banned maps package path to the call names that emit unstructured
// output (or exit/panic from library code).
var banned = map[string][]string{
	"fmt": {"Print", "Printf", "Println"},
	"log": {"Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln"},
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for pkg, names := range banned {
				if pass.IsPkgCall(call, pkg, names...) {
					name := "Print"
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						name = sel.Sel.Name
					}
					pass.Reportf(call.Pos(),
						"%s.%s in service code; log through log/slog so the line is leveled, structured, and trace-correlated",
						pkg, name)
				}
			}
			return true
		})
	}
	return nil
}
