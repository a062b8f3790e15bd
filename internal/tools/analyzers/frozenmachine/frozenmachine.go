// Package frozenmachine enforces the read-only-after-construction
// contract of machine.Machine. This is the invariant that makes a
// parallel RunSuite race-free: one Machine is shared by every
// concurrently running experiment.
//
// Two rules, one per side of the package boundary:
//
//  1. Outside the machine package no code may assign through a Machine
//     — neither to its own fields (m.Spec = ...) nor deeper into the
//     spec/fabric/memory objects it points at
//     (m.Spec.Latency.LocalDRAMNs = ...) — and no code may construct a
//     Machine literal instead of calling machine.New.
//  2. Inside the machine package a write through a Machine is legal
//     only while a constructor (machine.New, NewWithCalibration, ...,
//     or package init) still owns the value. The pass walks the call
//     graph backwards from the function containing the write, stopping
//     at constructors; if the walk reaches an exported function or
//     method that is not a constructor, the write is reachable after
//     construction and is reported at the write with the entry chain.
//     Unexported helpers reachable only from constructors stay clean.
//
// Deviations are suppressed per line with
// `//p8:allow frozenmachine: <why>`.
package frozenmachine

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/tools/analyzers/analysis"
)

// Analyzer is the frozenmachine pass.
var Analyzer = &analysis.Analyzer{
	Name:       "frozenmachine",
	Doc:        "machine.Machine is read-only once constructed: no writes or literals outside package machine, and no write inside it reachable from a post-construction entry point",
	RunProgram: run,
}

// checker holds the graph and, once an in-package write needs it, the
// reverse call edges.
type checker struct {
	pass *analysis.ProgramPass
	g    *analysis.CallGraph
	rev  map[*analysis.FuncNode][]*analysis.FuncNode
}

func run(pass *analysis.ProgramPass) error {
	c := &checker{pass: pass, g: pass.Prog.Graph()}
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				node := c.g.DeclNode(pkg.Info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							c.checkWrite(pkg, node, lhs)
						}
					case *ast.IncDecStmt:
						c.checkWrite(pkg, node, n.X)
					case *ast.CompositeLit:
						c.checkLiteral(pkg, n)
					}
					return true
				})
			}
		}
	}
	return nil
}

// checkWrite reports an assignment target reached through a Machine:
// always outside the constructor package, and inside it when a
// post-construction entry point reaches the writing function.
func (c *checker) checkWrite(pkg *analysis.Package, node *analysis.FuncNode, lhs ast.Expr) {
	root := machineRoot(pkg.Info, lhs)
	if root == nil {
		return
	}
	if root.Obj().Pkg() != pkg.Types {
		c.pass.Reportf(lhs.Pos(),
			"write through machine.Machine: the machine is read-only after construction (shared by concurrent experiments); build a new Machine instead")
		return
	}
	if node == nil || isConstructor(node) {
		return
	}
	if entry, chain := c.postConstructionEntry(node); entry != nil {
		c.pass.Reportf(lhs.Pos(),
			"write to machine.Machine reachable after construction: %s assigns through the Machine and is reached by exported %s (entry chain %s); the Machine is frozen once New returns — build a new one instead",
			node, entry, strings.Join(chain, " → "))
	}
}

// checkLiteral reports Machine composite literals outside the
// constructor package.
func (c *checker) checkLiteral(pkg *analysis.Package, lit *ast.CompositeLit) {
	if lit.Type == nil {
		return
	}
	named := asMachine(pkg.Info.TypeOf(lit.Type))
	if named == nil || named.Obj().Pkg() == pkg.Types {
		return
	}
	c.pass.Reportf(lit.Pos(), "construct Machine with machine.New/NewWithCalibration, not a literal (calibrations and invariants live in the constructor)")
}

// machineRoot walks the selector/index chain of an expression and
// returns the Machine type it passes through, or nil.
func machineRoot(info *types.Info, e ast.Expr) *types.Named {
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
		if named := asMachine(info.TypeOf(inner)); named != nil {
			return named
		}
		e = inner
	}
}

// asMachine returns the named machine.Machine type behind t, or nil.
func asMachine(t types.Type) *types.Named {
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

// isConstructor reports whether the node is construction-time code:
// the New* constructors and package init, where writes into the
// not-yet-published Machine are the whole point.
func isConstructor(n *analysis.FuncNode) bool {
	name := n.Func.Name()
	return strings.HasPrefix(name, "New") || name == "init"
}

// callers returns the reverse call edges in the graph's deterministic
// node/site order, built on first use.
func (c *checker) callers() map[*analysis.FuncNode][]*analysis.FuncNode {
	if c.rev == nil {
		c.rev = make(map[*analysis.FuncNode][]*analysis.FuncNode)
		for _, n := range c.g.Sorted {
			for _, site := range n.Calls {
				for _, callee := range site.Callees {
					c.rev[callee] = append(c.rev[callee], n)
				}
			}
		}
	}
	return c.rev
}

// postConstructionEntry walks callers backwards from the writing
// function. It returns the first exported non-constructor function the
// walk reaches, with the call chain from that entry down to the
// writer, or nil if every path into the writer passes through a
// constructor.
func (c *checker) postConstructionEntry(w *analysis.FuncNode) (*analysis.FuncNode, []string) {
	rev := c.callers()
	// parent[n] records how the BFS reached n (n's callee on the
	// discovered path toward w).
	parent := map[*analysis.FuncNode]*analysis.FuncNode{w: nil}
	queue := []*analysis.FuncNode{w}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if ast.IsExported(n.Func.Name()) {
			var chain []string
			for at := n; at != nil; at = parent[at] {
				chain = append(chain, at.String())
			}
			return n, chain
		}
		for _, caller := range rev[n] {
			if _, seen := parent[caller]; seen || isConstructor(caller) {
				continue
			}
			parent[caller] = n
			queue = append(queue, caller)
		}
	}
	return nil, nil
}
