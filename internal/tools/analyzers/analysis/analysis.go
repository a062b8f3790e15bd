// Package analysis is a self-contained miniature of
// golang.org/x/tools/go/analysis, built on the standard library only
// (the module is dependency-free by policy). It provides what the
// p8lint analyzers need and nothing more:
//
//   - Analyzer: a named check with a Run function over one package.
//   - Pass: the per-package view handed to Run — parsed files, the
//     type-checked *types.Package and a fully populated *types.Info.
//   - A source loader that resolves this module's packages, GOPATH-style
//     testdata trees (for golden tests), and the standard library (via
//     go/importer's source importer, cgo disabled).
//   - A runner that applies the //p8:allow suppression protocol shared
//     by every analyzer (see DESIGN.md "Static analysis").
//
// The deliberate omissions relative to x/tools — facts, result passing
// between analyzers, suggested fixes — keep the framework small; each
// p8lint analyzer is a single self-contained pass.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named static check. Exactly one of Run and
// RunProgram is set: Run is a per-package pass, RunProgram a
// whole-program pass over every loaded package at once (the
// interprocedural analyzers, which need the call graph).
type Analyzer struct {
	// Name identifies the analyzer in findings and in //p8:allow
	// comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is a summary, the
	// rest documents the rules precisely.
	Doc string
	// Run executes the check over one package, reporting findings
	// through the pass. A returned error aborts the whole lint run
	// (reserved for internal failures, not findings).
	Run func(*Pass) error
	// RunProgram executes the check once over the whole load set; set
	// instead of Run for interprocedural analyzers.
	RunProgram func(*ProgramPass) error
}

// A Pass is the view of one package given to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding covered by a //p8:allow directive;
	// Justification carries the directive's mandatory why-text.
	// RunDetailed returns suppressed findings (for the -json report);
	// Run drops them.
	Suppressed    bool
	Justification string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// PkgNameOf resolves an identifier to the imported package it names
// ("fmt" in fmt.Println), or nil when id is not a package name.
func (p *Pass) PkgNameOf(id *ast.Ident) *types.PkgName {
	if pn, ok := p.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn
	}
	return nil
}

// IsNamed reports whether t (after stripping pointers and aliases) is
// the named type typeName declared in a package whose *name* is
// pkgName. Matching by package name rather than import path lets golden
// testdata stand in for the real repro/internal packages.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			obj := tt.Obj()
			return obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Name() == pkgName && obj.Name() == typeName
		default:
			return false
		}
	}
}

// sortAllows orders directives by file, line, analyzer.
func sortAllows(allows []Allow) {
	sort.Slice(allows, func(i, j int) bool {
		a, b := allows[i], allows[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
