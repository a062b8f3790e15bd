// Package frozenmachine enforces the read-only-after-construction
// contract of machine.Machine: outside the machine package itself, no
// code may assign through a Machine — neither to its own fields
// (m.Spec = ...) nor deeper into the spec/fabric/memory objects it
// points at (m.Spec.Latency.LocalDRAMNs = ...) — and no code may
// construct a Machine literal instead of calling machine.New. This is
// the invariant that makes a parallel RunSuite race-free: one Machine
// is shared by every concurrently running experiment.
//
// Deviations are suppressed per line with
// `//p8:allow frozenmachine: <why>`.
package frozenmachine

import (
	"go/ast"
	"go/types"

	"repro/internal/tools/analyzers/analysis"
)

// Analyzer is the frozenmachine pass.
var Analyzer = &analysis.Analyzer{
	Name: "frozenmachine",
	Doc:  "machine.Machine is read-only outside its constructor package",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(pass, n.X)
			case *ast.CompositeLit:
				checkLiteral(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkWrite reports when an assignment target is reached through a
// Machine owned by another package.
func checkWrite(pass *analysis.Pass, lhs ast.Expr) {
	root := MachineRoot(pass.TypesInfo, lhs)
	if root == nil || samePackage(pass, root) {
		return
	}
	pass.Reportf(lhs.Pos(),
		"write through machine.Machine: the machine is read-only after construction (shared by concurrent experiments); build a new Machine instead")
}

// MachineRoot walks the selector/index chain of an expression and
// returns the Machine type it passes through, or nil. Exported for
// frozendeep, which applies the same write detection inside the
// machine package itself.
func MachineRoot(info *types.Info, e ast.Expr) *types.Named {
	for {
		var inner ast.Expr
		switch x := e.(type) {
		case *ast.SelectorExpr:
			inner = x.X
		case *ast.IndexExpr:
			inner = x.X
		case *ast.StarExpr:
			inner = x.X
		case *ast.ParenExpr:
			inner = x.X
		default:
			return nil
		}
		if named := AsMachine(info.TypeOf(inner)); named != nil {
			return named
		}
		e = inner
	}
}

// AsMachine returns the named machine.Machine type behind t, or nil.
func AsMachine(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			obj := tt.Obj()
			if obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "machine" && obj.Name() == "Machine" {
				return tt
			}
			return nil
		default:
			return nil
		}
	}
}

// samePackage reports whether the Machine type is declared in the
// package under analysis (the constructor package, where writes are
// legitimate).
func samePackage(pass *analysis.Pass, named *types.Named) bool {
	return named.Obj().Pkg() == pass.Pkg
}

// checkLiteral reports Machine composite literals outside the
// constructor package.
func checkLiteral(pass *analysis.Pass, lit *ast.CompositeLit) {
	if lit.Type == nil {
		return
	}
	named := AsMachine(pass.TypeOf(lit.Type))
	if named == nil || samePackage(pass, named) {
		return
	}
	pass.Reportf(lit.Pos(), "construct Machine with machine.New/NewWithCalibration, not a literal (calibrations and invariants live in the constructor)")
}
