// Package reach reports the code no binary reaches: every function or
// method of the load set that no root reaches through the
// whole-program reference graph. Code that only its own package's
// tests call belongs in a _test.go file; code nothing calls belongs
// nowhere.
//
// The roots are
//
//   - every main (in a main package) and every init;
//   - the exported functions and methods of every package importable
//     from outside the module (an import path with no internal
//     element, not a main package);
//   - functions referenced from package-level declarations (var
//     initializers run at start-up);
//   - methods that implement an interface of the standard library
//     (fmt.Stringer, error, http.Handler, sort.Interface, ...), since
//     the standard library may call them through it — but only once
//     their receiver type is used in reached code: a value the program
//     never makes or handles cannot reach the standard library;
//   - every function or method a _test.go file of another package
//     refers to: cross-package test support such as fault-injecting
//     filesystems cannot live in a _test.go file of its own package.
//
// An edge runs from a function to every function its body refers to,
// called or used as a value (func literals count as their encloser's
// body); a reference to an interface method reaches every method of
// the load set that may implement it. A type is used where a reached
// body or a package-level declaration has an expression of that type,
// or of a type built from it (a pointer, slice, array, map or channel
// of it, or a struct or named type with it inside).
//
// The analysis is whole-program: it assumes the load set is the whole
// module (p8lint's default ./...). Over a subset, code reached only
// from outside the subset is reported. A finding is suppressed with
// `//p8:allow reach: <why>` on or above the func line.
package reach

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/tools/analyzers/analysis"
)

// Analyzer is the reach pass.
var Analyzer = &analysis.Analyzer{
	Name:       "reach",
	Doc:        "report functions no main, init, exported API, function value, stdlib interface or other package's test reaches (needs the whole module, ./...: over a package subset it floods with code reached only from outside the subset)",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	g := prog.Graph()
	r := &reacher{g: g, seen: map[*analysis.FuncNode]bool{}, used: map[types.Type]bool{}}

	inProgram := map[*types.Package]bool{}
	for _, pkg := range prog.Pkgs {
		inProgram[pkg.Types] = true
	}
	for _, node := range g.Sorted {
		if isRoot(node) {
			r.visit(node)
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if _, ok := d.(*ast.FuncDecl); !ok {
					r.scan(pkg.Info, d)
				}
			}
		}
		tests, err := pkg.Tests()
		if err != nil {
			return err
		}
		for _, tp := range tests {
			for _, f := range tp.Files {
				eachRef(tp.Info, f, func(fn *types.Func) {
					if fn.Pkg() != pkg.Types && inProgram[fn.Pkg()] {
						r.ref(fn)
					}
				})
			}
		}
	}
	// A stdlib-interface method is a root once its receiver type is
	// used; visiting one may use more types, so iterate to a fixpoint.
	var pending []*analysis.FuncNode
	for _, m := range stdlibInterfaceMethods(prog, inProgram) {
		pending = append(pending, g.Implementations(m)...)
	}
	for grew := true; grew; {
		grew = false
		for _, node := range pending {
			if !r.seen[node] && r.used[receiver(node)] {
				r.visit(node)
				grew = true
			}
		}
	}

	for _, node := range g.Sorted {
		if !r.seen[node] {
			pass.Reportf(node.Decl.Name.Pos(),
				"%s is unreachable: no main, init, exported API, function value, stdlib interface or other package's test reaches it; delete it or move it into a _test.go file",
				node)
		}
	}
	return nil
}

// isRoot reports whether the node is a root by its declaration alone:
// main, init, or the exported API of an importable package.
func isRoot(node *analysis.FuncNode) bool {
	name := node.Decl.Name.Name
	recv := node.Decl.Recv != nil
	pkg := node.Pkg.Types
	switch {
	case !recv && name == "init":
		return true
	case pkg.Name() == "main":
		return !recv && name == "main"
	}
	return ast.IsExported(name) && !isInternal(node.Pkg.Path)
}

// isInternal reports whether the import path has an internal element,
// which hides it from importers outside the module.
func isInternal(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}

// A reacher marks the nodes reachable from the roots it is given, and
// the named types their code uses.
type reacher struct {
	g    *analysis.CallGraph
	seen map[*analysis.FuncNode]bool
	used map[types.Type]bool
}

// ref marks what a reference to fn reaches: its node, or every
// implementation when fn is an interface method.
func (r *reacher) ref(fn *types.Func) {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		for _, node := range r.g.Implementations(fn) {
			r.visit(node)
		}
		return
	}
	if node := r.g.NodeOf(fn); node != nil {
		r.visit(node)
	}
}

// eachRef calls f for every function or method n refers to, called or
// used as a value.
func eachRef(info *types.Info, n ast.Node, f func(*types.Func)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				f(fn)
			}
		}
		return true
	})
}

// visit marks node reached and follows the references in its body.
func (r *reacher) visit(node *analysis.FuncNode) {
	if r.seen[node] {
		return
	}
	r.seen[node] = true
	r.scan(node.Pkg.Info, node.Decl.Body)
}

// scan follows the function references in n and marks the types its
// expressions use.
func (r *reacher) scan(info *types.Info, n ast.Node) {
	eachRef(info, n, r.ref)
	eachType(info, n, r.useType)
}

// useType marks t used, with every type it is built from.
func (r *reacher) useType(t types.Type) {
	if r.used[t] {
		return
	}
	r.used[t] = true
	switch t := t.(type) {
	case *types.Named:
		r.useType(t.Origin())
		r.useType(t.Underlying())
	case *types.Map:
		r.useType(t.Key())
		r.useType(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		r.useType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.useType(t.Field(i).Type())
		}
	}
}

// eachType calls f with the type of every expression in n.
func eachType(info *types.Info, n ast.Node, f func(types.Type)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok && tv.Type != nil {
				f(tv.Type)
			}
		}
		return true
	})
}

// receiver returns the named type a method is declared on.
func receiver(node *analysis.FuncNode) types.Type {
	t := node.Func.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin()
}

// stdlibInterfaceMethods returns the methods of every non-empty
// interface declared by a package outside the load set that the load
// set imports, directly or through other such packages, plus error's
// Error.
func stdlibInterfaceMethods(prog *analysis.Program, inProgram map[*types.Package]bool) []*types.Func {
	out := []*types.Func{types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
		if inProgram[p] {
			return
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					out = append(out, iface.ExplicitMethod(i))
				}
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		walk(pkg.Types)
	}
	return out
}
