// Package hotpath enforces the repo's hot-path discipline on functions
// annotated with a //p8:hotpath directive in their doc comment — the
// walker access path, the Team dispatch/pull loop and the DES event
// loop, whose per-operation cost budgets are pinned by the allocation
// benchmarks (BenchmarkWalker*, BenchmarkParallelForTeam,
// BenchmarkSchedule) — and on their full static call closure.
//
// Inside an annotated function the analyzer rejects:
//
//   - any call into fmt (formatting allocates and takes interfaces),
//   - wall-clock calls (time.Now, time.Since, ...): hot loops carry
//     simulated or pre-resolved time only,
//   - any use of math/rand (nondeterministic seeding; internal/rng is
//     the seeded generator),
//   - any use of sync/atomic, including methods on atomic.* types —
//     the access paths are single-goroutine or flush-at-the-end by
//     design (the one designed-in exception, the dynamic chunk cursor,
//     carries a //p8:allow with its justification),
//   - ranging over a map (iteration order is random at run time),
//   - closures that capture enclosing variables (the capture may force
//     a heap allocation per call; hoist the state or pass it as an
//     argument).
//
// Every function an annotated one reaches through static calls —
// interface dispatch expanded conservatively to every satisfying method
// in the load set — is held to the same rules, with two differences:
// sync (locks block and their slow path allocates) is banned, and
// sync/atomic is allowed, because the flush targets of the "accumulate
// in plain fields, flush at the end" idiom — obs counters — are atomic
// by design and by benchmark. An
// offense in a callee is reported at the call inside the annotated
// function that starts the chain, with the chain; one finding per
// (call, offending function).
//
// A call through a function value anywhere in the closure, the
// annotated body included, is reported at the call site: the callee is
// statically unbounded, so the closure guarantee cannot be proven past
// it — keep hot dispatch direct or justify the site.
//
// Deviations are suppressed per line with
// `//p8:allow hotpath: <why>`. A waiver on an offending line inside a
// callee also clears the chain findings that reach it; a waiver at the
// anchoring call accepts the whole chain.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/tools/analyzers/analysis"
)

// Directive is the doc-comment marker that opts a function into the
// hot-path rules.
const Directive = "//p8:hotpath"

// wallClock is the banned wall-clock surface of package time.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name:       "hotpath",
	Doc:        "functions marked //p8:hotpath, and everything they statically call, may not call fmt or wall clocks, use math/rand, range over maps, or capture closures; annotated bodies may not use sync/atomic, callees may not use sync; diagnostics carry the call chain",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	g := pass.Prog.Graph()
	dynReported := map[token.Pos]bool{}
	for _, root := range g.Sorted {
		if annotated(root.Decl) {
			check(pass, root, dynReported)
		}
	}
	return nil
}

// annotated reports whether the function's doc comment carries the
// directive on a line of its own.
func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// A step is one BFS discovery: the node plus the edge that found it.
type step struct {
	node   *analysis.FuncNode
	parent *step
	site   *analysis.CallSite // edge from parent.node into node
}

// chain renders root → ... → leaf for diagnostics.
func (s *step) chain() string {
	var names []string
	for at := s; at != nil; at = at.parent {
		names = append(names, at.node.String())
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// anchor returns the depth-1 call site: the call inside the annotated
// root that starts this chain.
func (s *step) anchor() *analysis.CallSite {
	at := s
	for at.parent.parent != nil {
		at = at.parent
	}
	return at.site
}

// check walks one annotated root and its static call closure breadth
// first: the root's own body gets the annotated-body rules, every
// callee the closure rules, and dynamic sites are reported wherever
// they appear.
func check(pass *analysis.ProgramPass, root *analysis.FuncNode, dynReported map[token.Pos]bool) {
	visited := map[*analysis.FuncNode]bool{root: true}
	queue := []*step{{node: root}}
	// One chain finding per (anchor site, offending function): the first
	// offense is representative; a fixed helper clears its siblings.
	reported := map[[2]token.Pos]bool{}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		if at.parent == nil {
			checkBody(pass, root)
		} else {
			checkCallee(pass, at, reported)
		}
		for _, site := range at.node.Calls {
			if site.Dynamic {
				if !dynReported[site.Pos()] && !pass.Prog.Allowed(pass.Analyzer.Name, site.Pos()) {
					dynReported[site.Pos()] = true
					pass.Reportf(site.Pos(),
						"hot closure of %s calls through a function value; the callee is statically unbounded, so the hot-path guarantee stops here — dispatch directly or justify the site",
						root.String())
				}
				continue
			}
			for _, callee := range site.Callees {
				if visited[callee] {
					continue
				}
				visited[callee] = true
				queue = append(queue, &step{node: callee, parent: at, site: site})
			}
		}
	}
}

// checkBody applies the annotated-body rules to the root itself.
func checkBody(pass *analysis.ProgramPass, node *analysis.FuncNode) {
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			checkIdent(pass, info, n)
		case *ast.RangeStmt:
			if isMap(info, n.X) {
				pass.Reportf(n.Pos(), "hot path ranges over a map (iteration order is randomized); use a slice or fixed array")
			}
		case *ast.FuncLit:
			if name, ok := captures(info, node.Decl, n); ok {
				pass.Reportf(n.Pos(), "hot-path closure captures %q and may escape to the heap; hoist the state or pass it as an argument", name)
			}
		}
		return true
	})
}

// checkIdent flags uses of banned packages' functions and objects in
// an annotated body.
func checkIdent(pass *analysis.ProgramPass, info *types.Info, id *ast.Ident) {
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "fmt":
		if _, ok := obj.(*types.Func); ok {
			pass.Reportf(id.Pos(), "hot path calls fmt.%s (allocates); format outside the loop", id.Name)
		}
	case "time":
		if _, ok := obj.(*types.Func); ok && wallClock[obj.Name()] {
			pass.Reportf(id.Pos(), "hot path reads the wall clock (time.%s); use simulated time or stamp outside the loop", id.Name)
		}
	case "sync/atomic":
		if _, ok := obj.(*types.Func); ok {
			pass.Reportf(id.Pos(), "hot path uses sync/atomic (%s); accumulate in plain fields and flush at the end", id.Name)
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(id.Pos(), "hot path uses math/rand; use the seeded repro/internal/rng")
	}
}

// bannedExtern classifies a call leaf outside the load set made from a
// callee; it returns a short description of the offense, or "".
func bannedExtern(path, name string) string {
	switch path {
	case "fmt":
		return "calls fmt." + name + " (allocates)"
	case "time":
		if wallClock[name] {
			return "reads the wall clock (time." + name + ")"
		}
	case "sync":
		return "uses sync." + name + " (blocking; the slow path allocates)"
	case "math/rand", "math/rand/v2":
		return "uses math/rand." + name
	}
	return ""
}

// checkCallee applies the closure rules to one callee and reports each
// offense at the chain's anchor call inside the annotated root. A leaf
// line waived for hotpath is skipped.
func checkCallee(pass *analysis.ProgramPass, at *step, reported map[[2]token.Pos]bool) {
	anchor := at.anchor()
	report := func(pos token.Pos, what string) {
		if pass.Prog.Allowed(pass.Analyzer.Name, pos) {
			return
		}
		key := [2]token.Pos{anchor.Pos(), at.node.Decl.Pos()}
		if reported[key] {
			return
		}
		reported[key] = true
		p := pass.Prog.Fset.Position(pos)
		pass.Reportf(anchor.Pos(), "hot call chain %s: %s %s at %s:%d",
			at.chain(), at.node.String(), what, p.Filename, p.Line)
	}
	for _, site := range at.node.Calls {
		if site.ExternName == "" {
			continue
		}
		if what := bannedExtern(site.ExternPath, site.ExternName); what != "" {
			report(site.Pos(), what)
		}
	}
	node := at.node
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMap(info, n.X) {
				report(n.Pos(), "ranges over a map (iteration order is randomized)")
			}
		case *ast.FuncLit:
			if name, ok := captures(info, node.Decl, n); ok {
				report(n.Pos(), "builds a closure capturing \""+name+"\" (may escape to the heap)")
			}
		}
		return true
	})
}

// isMap reports whether the expression's type is (or aliases) a map.
func isMap(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// captures reports whether the closure references a variable declared
// in the enclosing function but outside the closure itself.
func captures(info *types.Info, fd *ast.FuncDecl, fl *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos >= fd.Pos() && pos < fd.End() && !(pos >= fl.Pos() && pos < fl.End()) {
			name = id.Name
		}
		return true
	})
	return name, name != ""
}
