package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the package's import path ("repro/internal/obs", or a
	// bare testdata path like "obs").
	Path string
	// Dir is the directory the files were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader                    *Loader
	testGoFiles, xtestGoFiles []string
}

// A TestPackage is one type-checked group of a package's _test.go
// files: the in-package tests (checked together with the package's
// own files, as go test compiles them) or the external package_test
// files. Files holds only the _test.go files; Info covers them.
type TestPackage struct {
	Files []*ast.File
	Info  *types.Info
}

// Tests parses and type-checks the package's _test.go files, returning
// the in-package group first and the external group second (each only
// when present). An external test package imports the package itself
// without its in-package test files, so identifiers exported only by
// an export_test.go file do not resolve.
func (p *Package) Tests() ([]*TestPackage, error) {
	var out []*TestPackage
	for _, group := range []struct {
		path  string
		names []string
		base  []*ast.File
	}{
		{p.Path, p.testGoFiles, p.Files},
		{p.Path + "_test", p.xtestGoFiles, nil},
	} {
		if len(group.names) == 0 {
			continue
		}
		tests, err := p.loader.parse(p.Dir, group.names)
		if err != nil {
			return nil, err
		}
		info, _, err := p.loader.check(group.path, append(tests, group.base...))
		if err != nil {
			return nil, err
		}
		out = append(out, &TestPackage{Files: tests, Info: info})
	}
	return out, nil
}

// A Loader resolves, parses and type-checks packages from three roots,
// tried in order: the enclosing Go module (ModuleDir/ModulePath), any
// number of GOPATH-style source roots (testdata/src trees), and the
// standard library via go/importer's source importer. cgo is disabled
// throughout, so the pure-Go fallbacks of net and friends type-check
// without a C toolchain.
type Loader struct {
	// ModuleDir is the module root (the directory holding go.mod);
	// empty disables module resolution.
	ModuleDir string
	// ModulePath is the module's declared path; derived from go.mod by
	// NewModuleLoader.
	ModulePath string
	// SrcDirs are GOPATH-style roots: import path "p" resolves to
	// SrcDirs[i]/p.
	SrcDirs []string

	Fset *token.FileSet

	ctxt    build.Context
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader over the given GOPATH-style source roots
// (module resolution disabled).
func NewLoader(srcDirs ...string) *Loader {
	l := &Loader{SrcDirs: srcDirs}
	l.init()
	return l
}

// NewModuleLoader returns a loader rooted at the module containing
// dir, reading the module path from its go.mod.
func NewModuleLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{ModuleDir: root, ModulePath: path}
	l.init()
	return l, nil
}

func (l *Loader) init() {
	l.Fset = token.NewFileSet()
	l.ctxt = build.Default
	l.ctxt.CgoEnabled = false
	// The source importer shares our FileSet so stdlib positions stay
	// meaningful in the rare case they leak into a message.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	l.pkgs = map[string]*Package{}
	l.loading = map[string]bool{}
}

// findModule walks up from dir to the first go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Load resolves patterns to packages and loads each. Patterns may be
// import paths ("repro/internal/obs", or "obs" against SrcDirs),
// module-relative directories ("./internal/obs"), or recursive
// patterns ("./...", "./internal/...").
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var paths []string
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "..."):
			base := strings.TrimSuffix(pat, "...")
			base = strings.TrimSuffix(base, "/")
			expanded, err := l.expand(base)
			if err != nil {
				return nil, err
			}
			paths = append(paths, expanded...)
		case pat == "." || strings.HasPrefix(pat, "./"):
			if l.ModuleDir == "" {
				return nil, fmt.Errorf("analysis: relative pattern %q needs a module root", pat)
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(pat, "."), "/")
			paths = append(paths, joinImport(l.ModulePath, rel))
		default:
			paths = append(paths, pat)
		}
	}
	var out []*Package
	seen := map[string]bool{}
	for _, p := range paths {
		if seen[p] {
			continue
		}
		seen[p] = true
		pkg, err := l.loadPath(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// expand walks the module tree under the (module-relative) base
// directory and returns the import path of every buildable package.
func (l *Loader) expand(base string) ([]string, error) {
	if l.ModuleDir == "" {
		return nil, fmt.Errorf("analysis: pattern expansion needs a module root")
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(base, "."), "/")
	root := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := l.ctxt.ImportDir(path, 0); err != nil {
			return nil // not a buildable package; keep walking
		}
		sub, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		out = append(out, joinImport(l.ModulePath, filepath.ToSlash(sub)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

func joinImport(mod, rel string) string {
	if rel == "" || rel == "." {
		return mod
	}
	return mod + "/" + rel
}

// dirFor maps an import path to a source directory, trying the module
// first and then the GOPATH-style roots.
func (l *Loader) dirFor(path string) (string, bool) {
	if l.ModuleDir != "" {
		if path == l.ModulePath {
			return l.ModuleDir, true
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
		}
	}
	for _, src := range l.SrcDirs {
		dir := filepath.Join(src, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// loadPath loads one package (and, recursively, its in-tree imports),
// memoizing by import path.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: cannot resolve package %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	info, tpkg, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path: path, Dir: dir, Files: files, Types: tpkg, Info: info,
		loader: l, testGoFiles: bp.TestGoFiles, xtestGoFiles: bp.XTestGoFiles,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parse parses the named files of dir, comments included.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as the package at path, resolving imports
// through the loader. Any type error fails the check.
func (l *Loader) check(path string, files []*ast.File) (*types.Info, *types.Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importFor),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, nil, fmt.Errorf("analysis: type errors in %s: %v", path, typeErrs[0])
	}
	return info, tpkg, nil
}

// importFor satisfies go/types imports: in-tree packages load through
// the loader; everything else falls back to the stdlib source importer.
func (l *Loader) importFor(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
