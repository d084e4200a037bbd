package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoPanic forbids panic in library packages.
//
// The batch engine survives a panicking simulation only because
// internal/runner recovers it — but a recovered panic still kills that
// route's result. Library code must return errors; panics are reserved
// for init-time wiring and Must*-style constructors whose inputs are
// compile-time constants, plus explicitly justified programmer-error
// contracts (e.g. mismatched scratch lengths in the optimize kernels,
// which follow the gonum convention — suppressed there line by line).
var NoPanic = &Analyzer{
	Name: "nopanic",
	Doc: `forbid panic outside init functions and Must*-style constructors

Library packages must surface failures as errors so the runner's batch
isolation and the facade's sentinel errors stay meaningful. panic is
allowed inside func init and functions whose name starts with Must/must
(constructors for compile-time-constant inputs); anything else needs a
//lint:ignore nopanic or //lint:file-ignore nopanic with a reason.`,
	Run: runNoPanic,
}

func runNoPanic(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // CLIs may die loudly
	}
	inspectWithStack(pass, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" {
			return
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
			return
		}
		name := enclosingFuncName(stack)
		if name == "init" || strings.HasPrefix(strings.ToLower(name), "must") {
			return
		}
		pass.Reportf(call.Pos(), "panic in library code (func %s); return an error, or rename to Must* if inputs are compile-time constants", funcLabel(name))
	})
	return nil
}

func funcLabel(name string) string {
	if name == "" {
		return "<package scope>"
	}
	return name
}
