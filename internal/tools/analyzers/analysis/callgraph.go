package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the typed call graph behind the interprocedural
// analyzers (determinism, frozenmachine, hotpath, servicecheck). The
// construction rules, in order of decreasing precision:
//
//   - Direct calls and concrete method calls resolve to their one
//     static callee via go/types.
//   - A call through an interface method is expanded conservatively to
//     every method of that name on every named type in the load set
//     whose method set satisfies the interface — the analyzers assume
//     any of them may run.
//   - A call through a function value (a func-typed variable, field,
//     parameter or map/slice element) cannot be bounded statically; the
//     site is recorded as Dynamic and each analyzer decides what that
//     means for its contract (hotpath, for instance, reports it).
//   - A func literal is not a node of its own: its body is attributed
//     to the enclosing declaration, which over-approximates (the
//     literal may never run) but never misses behavior the encloser
//     can reach.
//
// Calls to functions outside the load set (the standard library) are
// leaves: the site records the callee's import path and name so passes
// can match them against ban lists (time.Now, fmt.*, ...) without
// traversing stdlib bodies.

// A FuncNode is one declared function or method of the load set.
type FuncNode struct {
	Func *types.Func
	Decl *ast.FuncDecl
	File *ast.File
	Pkg  *Package
	// Calls are the node's call sites in source order, including sites
	// inside func literals declared in the body.
	Calls []*CallSite
}

// String renders the node as pkg.Func or pkg.(Recv).Method for chain
// diagnostics.
func (n *FuncNode) String() string {
	qual := func(p *types.Package) string { return p.Name() }
	sig := n.Func.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return types.TypeString(recv.Type(), qual) + "." + n.Func.Name()
	}
	return qual(n.Func.Pkg()) + "." + n.Func.Name()
}

// A CallSite is one call expression and its possible callees.
type CallSite struct {
	Call *ast.CallExpr
	// Callees are the possible in-program targets: one for a static
	// call, every satisfying method for an interface dispatch, none for
	// dynamic or extern calls. Sorted by position.
	Callees []*FuncNode
	// Interface is the interface method being dispatched when the
	// Callees were found by method-set expansion; nil for static calls.
	Interface *types.Func
	// Dynamic marks a call through a function value — statically
	// unbounded.
	Dynamic bool
	// ExternPath/ExternName identify a static callee outside the load
	// set (stdlib), for ban-list matching. Empty when in-program.
	ExternPath, ExternName string
}

// Pos returns the call's position.
func (s *CallSite) Pos() token.Pos { return s.Call.Pos() }

// A CallGraph is the whole-program graph over the load set.
type CallGraph struct {
	prog *Program
	// Nodes maps each declared function to its node.
	Nodes map[*types.Func]*FuncNode
	// Sorted holds the nodes in deterministic (file, position) order;
	// passes iterate it so their findings are stable run to run.
	Sorted []*FuncNode

	sites map[*ast.CallExpr]*CallSite
	named []*types.Named // package-scope named types, for expansion
}

// NodeOf returns the node of a declared function, or nil.
func (g *CallGraph) NodeOf(f *types.Func) *FuncNode {
	if f == nil {
		return nil
	}
	return g.Nodes[f.Origin()]
}

// DeclNode returns the node of a function declaration, or nil for any
// other declaration (package-level initializers are not nodes).
func (g *CallGraph) DeclNode(info *types.Info, decl ast.Decl) *FuncNode {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return nil
	}
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return g.NodeOf(fn)
}

// Site returns the call site record of a call expression, or nil when
// the call has no graph meaning (a conversion, a builtin, a call of a
// func literal whose body is already attributed to the encloser).
func (g *CallGraph) Site(call *ast.CallExpr) *CallSite { return g.sites[call] }

func buildGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		prog:  prog,
		Nodes: map[*types.Func]*FuncNode{},
		sites: map[*ast.CallExpr]*CallSite{},
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Func: obj, Decl: fd, File: f, Pkg: pkg}
				g.Nodes[obj] = node
				g.Sorted = append(g.Sorted, node)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
				g.named = append(g.named, n)
			}
		}
	}
	sort.Slice(g.Sorted, func(i, j int) bool {
		a, b := prog.Fset.Position(g.Sorted[i].Decl.Pos()), prog.Fset.Position(g.Sorted[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, node := range g.Sorted {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				g.resolve(node, call)
			}
			return true
		})
	}
	return g
}

// resolve classifies one call expression and appends its site to the
// caller node (or drops it: conversions, builtins, immediate literal
// calls).
func (g *CallGraph) resolve(node *FuncNode, call *ast.CallExpr) {
	site := &CallSite{Call: call}
	info := node.Pkg.Info
	fun := unwrap(call.Fun)
	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fn].(type) {
		case *types.Func:
			g.static(site, obj)
		case *types.Var:
			site.Dynamic = true // local or package-level func variable
		default:
			return // conversion, builtin
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fn]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				f := sel.Obj().(*types.Func)
				recv := f.Type().(*types.Signature).Recv()
				if recv != nil && types.IsInterface(recv.Type()) {
					site.Interface = f
					site.Callees = g.Implementations(f)
				} else {
					g.static(site, f)
				}
			case types.FieldVal:
				site.Dynamic = true // calling a func-typed field
			default:
				return // method expression: a value, not a call
			}
		} else {
			switch obj := info.Uses[fn.Sel].(type) {
			case *types.Func:
				g.static(site, obj) // qualified pkg.Func
			case *types.Var:
				site.Dynamic = true // qualified package-level func var
			default:
				return // qualified type conversion
			}
		}
	case *ast.FuncLit:
		return // body already attributed to the encloser
	default:
		site.Dynamic = true // funcs[i](...), (<-ch)(...), ...
	}
	node.Calls = append(node.Calls, site)
	g.sites[call] = site
}

// unwrap strips parens and generic instantiation indexes off a call's
// Fun expression.
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

// static records a single-callee site: an in-program node when the
// callee is declared in the load set, an extern leaf otherwise.
func (g *CallGraph) static(site *CallSite, f *types.Func) {
	f = f.Origin()
	if n := g.Nodes[f]; n != nil {
		site.Callees = append(site.Callees, n)
		return
	}
	if f.Pkg() != nil {
		site.ExternPath = f.Pkg().Path()
	}
	site.ExternName = f.Name()
}

// Implementations returns every in-program method that a dispatch of
// the interface method f may run, sorted by position: for each named
// type whose method set (value or pointer) implements f's receiver
// interface, the concrete method of f's name.
func (g *CallGraph) Implementations(f *types.Func) []*FuncNode {
	iface, ok := f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncNode
	seen := map[*types.Func]bool{}
	for _, named := range g.named {
		var recv types.Type = named
		if !types.Implements(named, iface) {
			if !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			recv = types.NewPointer(named)
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, f.Pkg(), f.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		m = m.Origin()
		if node := g.Nodes[m]; node != nil && !seen[m] {
			seen[m] = true
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := g.prog.Fset.Position(out[i].Decl.Pos()), g.prog.Fset.Position(out[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}
