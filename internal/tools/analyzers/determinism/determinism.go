// Package determinism enforces the bit-reproducibility contract of the
// simulation core. The paper's figures are regenerated from scratch on
// every run, and EXPERIMENTS.md is committed generated output, so two
// runs of the same binary must render byte-identical reports.
//
// Four rule groups, keyed by package name:
//
//  1. In the simulation packages (machine, engine, experiments, fault,
//     canon, memo): no wall-clock reads (time.Now, time.Since, ...) and
//     no math/rand — simulated time and the seeded repro/internal/rng
//     only. Package fault is in the set because a fault plan must be
//     reproducible from its seed alone: the same plan string or seed
//     has to derive bit-identical degraded machines on every run.
//     Packages canon and memo are in the set because they carry the
//     result-cache contract: a fingerprint or cached result that
//     embedded a timestamp or random value would never hit again (the
//     disk store's I/O timing instrumentation carries explicit allows).
//
//  2. In the simulation packages plus obs (whose exporters render the
//     reports): ranging over a map must not let Go's randomized
//     iteration order reach output. For canon this is the map-free
//     canonical-encoding rule: iteration order reaching a hash would
//     make equal inputs fingerprint apart. A map range is clean when its body
//     only accumulates commutatively: writes into other maps, compound
//     ops (+=, |=, ...), increments, deletes, writes to variables
//     declared inside the loop, and the collect-keys-then-sort idiom
//     (append into a slice that a sort.* / slices.Sort* call covers
//     later in the file). Everything else — plain assignments to outer
//     variables, calls, returns, sends — is flagged, because each one
//     can leak iteration order into reports (last-writer-wins picks,
//     arbitrary-element returns, emit calls).
//
//  3. In the simulation packages: a select over two or more channels is
//     flagged, because Go resolves multiple ready cases by uniform
//     random choice — merging shard streams through a select leaks
//     scheduling order into simulated results. Cross-shard events must
//     flow through the engine's canonical (time, shard, seq) sorted
//     merge (engine.ShardedSim); single-case selects, with or without a
//     default, stay legal as plain non-blocking operations.
//
//  4. Through the call graph: a call from a simulation package into a
//     module function outside the simulation packages and obs is
//     flagged when that helper's static call closure — interface
//     dispatch expanded conservatively — reaches a wall-clock read,
//     any use of math/rand, or a map range that leaks iteration order
//     by the rule-2 classification. The finding anchors at the call
//     and prints the chain down to the offense. The walk stops at the
//     simulation packages (rules 1-3 check their bodies at the source)
//     and at obs (its Timers are harness provenance by design, never
//     simulated state); calls through function values are not
//     followed.
//
// Deviations are suppressed per line with
// `//p8:allow determinism: <why>`. A waiver on the offending line of a
// helper also clears the rule-4 findings that reach it, so one
// justified deviation is not reported twice.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/tools/analyzers/analysis"
)

// simPackages need rules 1, 3 and 4 (and rule 2).
var simPackages = map[string]bool{
	"machine": true, "engine": true, "experiments": true, "fault": true,
	"canon": true, "memo": true,
}

// orderedPackages need rule 2: simPackages plus the exporters. The
// rule-4 walk stops at them.
var orderedPackages = map[string]bool{
	"machine": true, "engine": true, "experiments": true, "fault": true,
	"canon": true, "memo": true, "obs": true,
}

// wallClock is the banned wall-clock surface of package time.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name:       "determinism",
	Doc:        "simulation and reporting packages must not read wall clocks, use math/rand, or let map iteration order reach output, directly or through the helpers they call; call-graph diagnostics carry the chain",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	c := &checker{
		pass:   pass,
		g:      pass.Prog.Graph(),
		taints: map[*analysis.FuncNode]*taint{},
		done:   map[*analysis.FuncNode]bool{},
	}
	for _, pkg := range pass.Prog.Pkgs {
		name := pkg.Types.Name()
		sim, ordered := simPackages[name], orderedPackages[name]
		if !sim && !ordered {
			continue
		}
		info := pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				from := c.g.DeclNode(info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if sim {
							checkIdent(pass, info, n)
						}
					case *ast.RangeStmt:
						if ordered && isMapType(info, n.X) {
							for _, leak := range rangeLeaks(info, f, n) {
								pass.Reportf(leak.pos, "%s", leak.msg)
							}
						}
					case *ast.SelectStmt:
						if sim {
							checkSelect(pass, n)
						}
					case *ast.CallExpr:
						if sim && from != nil {
							c.checkCall(from, n)
						}
					}
					return true
				})
			}
		}
	}
	return nil
}

// checkIdent flags wall-clock and math/rand references.
func checkIdent(pass *analysis.ProgramPass, info *types.Info, id *ast.Ident) {
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if _, ok := obj.(*types.Func); ok && wallClock[obj.Name()] {
			pass.Reportf(id.Pos(), "time.%s in a deterministic package; use simulated time (wall time belongs in the harness)", id.Name)
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(id.Pos(), "math/rand in a deterministic package; use the seeded repro/internal/rng")
	}
}

// checkSelect flags multi-way selects in simulation packages. When more
// than one communication case is ready, the runtime picks one uniformly
// at random, so merging event or message streams through a select lets
// goroutine scheduling reach simulated results. The sanctioned idiom is
// the engine's canonical (time, shard, seq) sorted merge; a select with
// a single communication case (with or without a default) is just a
// non-blocking operation and stays legal.
func checkSelect(pass *analysis.ProgramPass, s *ast.SelectStmt) {
	comm := 0
	for _, cc := range s.Body.List {
		if c, ok := cc.(*ast.CommClause); ok && c.Comm != nil {
			comm++
		}
	}
	if comm >= 2 {
		pass.Reportf(s.Pos(), "a select over %d channels resolves ready cases in randomized order; merge shard streams with the canonical (time, shard, seq) sorted merge instead", comm)
	}
}

// A taint describes why a helper is nondeterministic: the offense, its
// position, and the chain of module functions from the helper down to
// it.
type taint struct {
	desc  string
	pos   token.Pos
	chain []*analysis.FuncNode
}

// checker holds the rule-4 state: the call graph and the per-helper
// taint memo.
type checker struct {
	pass   *analysis.ProgramPass
	g      *analysis.CallGraph
	taints map[*analysis.FuncNode]*taint
	done   map[*analysis.FuncNode]bool
}

// checkCall flags a call from a deterministic package to a tainted
// out-of-scope helper: one finding per call site, for the first
// tainted callee.
func (c *checker) checkCall(from *analysis.FuncNode, call *ast.CallExpr) {
	site := c.g.Site(call)
	if site == nil {
		return
	}
	for _, callee := range site.Callees {
		if orderedPackages[callee.Pkg.Types.Name()] {
			continue // checked at the source by rules 1-3
		}
		t := c.taintOf(callee)
		if t == nil {
			continue
		}
		p := c.pass.Prog.Fset.Position(t.pos)
		c.pass.Reportf(site.Pos(),
			"nondeterminism reaches %s through this call: %s %s at %s:%d (call chain %s)",
			from.Pkg.Types.Name(), t.chain[len(t.chain)-1].String(), t.desc, p.Filename, p.Line,
			renderChain(from, t.chain))
		return
	}
}

// taintOf computes (and memoizes) whether a helper's closure reaches a
// nondeterminism source. Cycles resolve to clean unless a source is
// found elsewhere on the walk.
func (c *checker) taintOf(node *analysis.FuncNode) *taint {
	if c.done[node] {
		return c.taints[node]
	}
	c.done[node] = true // pre-mark: cycles read clean while in progress

	if t := c.direct(node); t != nil {
		c.taints[node] = t
		return t
	}
	for _, site := range node.Calls {
		for _, callee := range site.Callees {
			if orderedPackages[callee.Pkg.Types.Name()] {
				continue
			}
			if sub := c.taintOf(callee); sub != nil {
				t := &taint{desc: sub.desc, pos: sub.pos,
					chain: append([]*analysis.FuncNode{node}, sub.chain...)}
				c.taints[node] = t
				return t
			}
		}
	}
	return nil
}

// direct finds a nondeterminism source written in the node's own body:
// a banned extern call, any math/rand reference, or an order-leaking
// map range. Leaves waived with //p8:allow determinism are skipped.
func (c *checker) direct(node *analysis.FuncNode) *taint {
	var found *taint
	record := func(pos token.Pos, desc string) {
		if found != nil || c.pass.Prog.Allowed(c.pass.Analyzer.Name, pos) {
			return
		}
		found = &taint{desc: desc, pos: pos, chain: []*analysis.FuncNode{node}}
	}
	for _, site := range node.Calls {
		if site.ExternName == "" {
			continue
		}
		switch site.ExternPath {
		case "time":
			if wallClock[site.ExternName] {
				record(site.Pos(), "reads the wall clock (time."+site.ExternName+")")
			}
		case "math/rand", "math/rand/v2":
			record(site.Pos(), "uses math/rand."+site.ExternName)
		}
	}
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			// Non-call uses of math/rand (rand.Source values, method
			// receivers) taint too, as under rule 1.
			if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "math/rand", "math/rand/v2":
					record(n.Pos(), "uses math/rand")
				}
			}
		case *ast.RangeStmt:
			if isMapType(info, n.X) {
				for _, leak := range rangeLeaks(info, node.File, n) {
					record(leak.pos, "lets map iteration order escape ("+leak.msg+")")
				}
			}
		}
		return true
	})
	return found
}

// renderChain renders from → helper → ... → offender.
func renderChain(from *analysis.FuncNode, chain []*analysis.FuncNode) string {
	names := make([]string, 0, len(chain)+1)
	names = append(names, from.String())
	for _, n := range chain {
		names = append(names, n.String())
	}
	return strings.Join(names, " → ")
}

// A rangeLeak is one statement of a map-range body that can observe
// iteration order. Rule 2 reports each directly; rule 4 uses the same
// classification to decide whether a helper taints its callers.
type rangeLeak struct {
	pos token.Pos
	msg string
}

// rangeLeaks classifies every statement of one map-range body and
// returns the ones that can observe iteration order.
func rangeLeaks(info *types.Info, file *ast.File, rs *ast.RangeStmt) []rangeLeak {
	c := &rangeChecker{info: info, file: file, rs: rs}
	c.stmts(rs.Body.List)
	return c.leaks
}

type rangeChecker struct {
	info  *types.Info
	file  *ast.File
	rs    *ast.RangeStmt
	leaks []rangeLeak
}

const fixHint = "iterate sorted keys instead"

// report records one leak at pos.
func (c *rangeChecker) report(pos token.Pos, format string, args ...interface{}) {
	c.leaks = append(c.leaks, rangeLeak{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (c *rangeChecker) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

func (c *rangeChecker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.IncDecStmt:
		// Counting is commutative.
	case *ast.DeclStmt:
		// Declares loop-local state.
	case *ast.BranchStmt:
		// continue/break carry no order information by themselves.
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := c.info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
				return
			}
		}
		c.report(s.Pos(), "a call inside a map range runs in randomized order; "+fixHint)
	case *ast.BlockStmt:
		c.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		c.stmts(s.Body.List)
		if s.Else != nil {
			c.stmt(s.Else)
		}
	case *ast.ForStmt:
		c.stmts(s.Body.List)
	case *ast.RangeStmt:
		// The nested range is classified on its own visit; its body is
		// still part of this loop's body.
		c.stmts(s.Body.List)
	case *ast.SwitchStmt:
		for _, cc := range s.Body.List {
			c.stmts(cc.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			c.stmts(cc.(*ast.CaseClause).Body)
		}
	case *ast.ReturnStmt:
		c.report(s.Pos(), "returning from inside a map range selects an arbitrary element; "+fixHint)
	default:
		// go, defer, select, sends, labels: all can observe order.
		c.report(s.Pos(), "this statement depends on map iteration order; "+fixHint)
	}
}

// assign allows commutative accumulation and loop-local writes, plus
// the collect-then-sort idiom; anything else is order-dependent.
func (c *rangeChecker) assign(s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// Compound ops (+=, -=, *=, |=, ^=, &=, ...) accumulate
		// commutatively enough for reporting purposes.
		return
	}
	for i, lhs := range s.Lhs {
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "_" || c.localTo(l, c.rs) {
				continue
			}
			if i == 0 && len(s.Lhs) == 1 && len(s.Rhs) == 1 && c.appendSorted(l, s.Rhs[0]) {
				continue
			}
			c.report(lhs.Pos(), "map iteration order can reach %q through this assignment (last writer wins); "+fixHint, l.Name)
		case *ast.IndexExpr:
			if isMapType(c.info, l.X) {
				continue // keyed map writes are order-independent
			}
			c.report(lhs.Pos(), "writing a slice slot from a map range captures iteration order; "+fixHint)
		default:
			c.report(lhs.Pos(), "map iteration order can reach this assignment target; "+fixHint)
		}
	}
}

// localTo reports whether the identifier's object is declared within
// the node (the loop, including its key/value variables).
func (c *rangeChecker) localTo(id *ast.Ident, n ast.Node) bool {
	obj := c.info.ObjectOf(id)
	return obj != nil && obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}

// appendSorted recognizes `x = append(x, ...)` where x is sorted by a
// sort.* or slices.Sort* call after the loop — the sanctioned
// collect-keys-then-sort idiom (obs.sortedKeys).
func (c *rangeChecker) appendSorted(lhs *ast.Ident, rhs ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := c.info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return false
	}
	obj := c.info.ObjectOf(lhs)
	if obj == nil {
		return false
	}
	// Look for a later sort call covering the same object.
	sorted := false
	ast.Inspect(c.file, func(n ast.Node) bool {
		if sorted {
			return false
		}
		sc, ok := n.(*ast.CallExpr)
		if !ok || sc.Pos() < c.rs.End() || len(sc.Args) == 0 {
			return true
		}
		if _, ok := callTo(c.info, sc, "sort"); !ok {
			if name, ok := callTo(c.info, sc, "slices"); !ok || !strings.HasPrefix(name, "Sort") {
				return true
			}
		}
		arg, ok := sc.Args[0].(*ast.Ident)
		if ok && c.info.ObjectOf(arg) == obj {
			sorted = true
		}
		return true
	})
	return sorted
}

// isMapType reports whether the expression's type is (or aliases) a
// map.
func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// callTo reports whether call invokes a function of the package with
// import path pkgPath, returning the function name.
func callTo(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	if _, ok := info.Uses[sel.Sel].(*types.Func); !ok {
		return "", false
	}
	return sel.Sel.Name, true
}
