// Package teamuse flags misuse of the parallel kernel runtime that the
// Team's own runtime checks can only catch when the bad schedule
// actually interleaves — or cannot catch at all:
//
//   - nested dispatch: calling any parallel-for (a Team method or a
//     package-level helper) from inside the body closure of another
//     parallel-for. The outer loop holds the team until its body
//     returns, so the inner call deadlocks.
//   - cross-goroutine dispatch: dispatching on the same Team variable
//     from more than one goroutine in a function. A Team runs one loop
//     at a time; the racing call panics only when the timing is
//     unlucky, so the static check catches it before the flake does.
//   - leaked teams: a Team created with NewTeam in a function that
//     neither closes it nor hands it off leaks its worker goroutines.
//
// Deviations are suppressed per line with `//p8:allow teamuse: <why>`.
package teamuse

import (
	"go/ast"
	"go/types"

	"repro/internal/tools/analyzers/analysis"
)

// dispatchMethods are the Team methods that run a loop.
var dispatchMethods = map[string]bool{
	"ParallelFor": true, "ParallelForWorker": true,
	"StaticFor": true,
}

// dispatchFuncs are the package-level helpers that run a loop on a
// shared team.
var dispatchFuncs = map[string]bool{
	"For": true, "ForWorker": true,
	"StaticFor": true,
}

// Analyzer is the teamuse pass.
var Analyzer = &analysis.Analyzer{
	Name: "teamuse",
	Doc:  "parallel.Team misuse: nested dispatch (deadlock), dispatch from several goroutines, teams never closed",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkNested(pass, fd)
			checkCrossGoroutine(pass, fd)
			checkLeaks(pass, fd)
		}
	}
	return nil
}

// isDispatch reports whether the call runs a parallel-for, either as a
// Team method or as a package-level helper of the parallel package.
func isDispatch(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn := pass.PkgNameOf(id); pn != nil {
			return pn.Imported().Name() == "parallel" && dispatchFuncs[sel.Sel.Name]
		}
	}
	return dispatchMethods[sel.Sel.Name] && analysis.IsNamed(pass.TypeOf(sel.X), "parallel", "Team")
}

// dispatchReceiver returns the variable a Team-method dispatch runs
// on, or nil for package-level dispatches and complex receivers.
func dispatchReceiver(pass *analysis.Pass, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !dispatchMethods[sel.Sel.Name] {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !analysis.IsNamed(pass.TypeOf(sel.X), "parallel", "Team") {
		return nil
	}
	v, _ := pass.TypesInfo.ObjectOf(id).(*types.Var)
	return v
}

// checkNested reports dispatch calls inside the body closure of
// another dispatch call.
func checkNested(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		outer, ok := n.(*ast.CallExpr)
		if !ok || !isDispatch(pass, outer) || len(outer.Args) == 0 {
			return true
		}
		body, ok := outer.Args[len(outer.Args)-1].(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(body.Body, func(m ast.Node) bool {
			inner, ok := m.(*ast.CallExpr)
			if ok && isDispatch(pass, inner) {
				pass.Reportf(inner.Pos(), "nested parallel-for: the enclosing loop holds its team until the body returns, so this call deadlocks; restructure into sequential loops")
			}
			return true
		})
		return true
	})
}

// checkCrossGoroutine reports a Team variable dispatched from more
// than one goroutine context (the function body counts as one context;
// every go statement opens another).
func checkCrossGoroutine(pass *analysis.Pass, fd *ast.FuncDecl) {
	type site struct {
		ctx ast.Node // nil = the function's own goroutine
		pos ast.Node
	}
	sites := map[*types.Var][]site{}
	var walk func(n ast.Node, ctx ast.Node)
	walk = func(n ast.Node, ctx ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.GoStmt:
				walk(m.Call, m)
				return false
			case *ast.CallExpr:
				if v := dispatchReceiver(pass, m); v != nil {
					sites[v] = append(sites[v], site{ctx: ctx, pos: m})
				}
			}
			return true
		})
	}
	walk(fd.Body, nil)
	for v, ss := range sites {
		for _, s := range ss {
			if s.ctx != ss[0].ctx {
				pass.Reportf(s.pos.Pos(), "Team %q is dispatched from more than one goroutine in this function; a Team runs one loop at a time — serialize the calls or use the package-level parallel.For helpers", v.Name())
			}
		}
	}
}

// checkLeaks reports NewTeam results that are neither closed nor
// handed off.
func checkLeaks(pass *analysis.Pass, fd *ast.FuncDecl) {
	parents := parentMap(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isNewTeam(pass, call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		v, _ := pass.TypesInfo.ObjectOf(id).(*types.Var)
		if v == nil {
			return true
		}
		closed, escapes := teamFate(pass, fd, parents, v, id)
		if !closed && !escapes {
			pass.Reportf(call.Pos(), "Team %q is never Closed in this function and does not escape; its worker goroutines leak (add defer %s.Close())", v.Name(), v.Name())
		}
		return true
	})
}

// isNewTeam matches calls to parallel.NewTeam (qualified or, inside
// the parallel package itself, unqualified).
func isNewTeam(pass *analysis.Pass, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == "NewTeam" && fn.Pkg() != nil && fn.Pkg().Name() == "parallel"
}

// teamFate scans the function for what happens to the team variable:
// a Close call (direct or deferred), or any use that hands the value
// beyond this function (argument, return, field, composite literal,
// channel, other assignment).
func teamFate(pass *analysis.Pass, fd *ast.FuncDecl, parents map[ast.Node]ast.Node, v *types.Var, def *ast.Ident) (closed, escapes bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == def || pass.TypesInfo.ObjectOf(id) != v {
			return true
		}
		parent := parents[id]
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
			if sel.Sel.Name == "Close" {
				closed = true
			}
			// Method calls and field reads on the team keep it local.
			return true
		}
		escapes = true
		return true
	})
	return closed, escapes
}

// parentMap records each node's parent within the function.
func parentMap(fd *ast.FuncDecl) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
