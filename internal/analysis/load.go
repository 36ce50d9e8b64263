package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module using only
// the standard library: module-internal imports resolve by path mapping
// under the module root, and everything else (the stdlib) goes through
// the source importer. Test files are skipped — splicelint's invariants
// target production code.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std  types.Importer
	pkgs map[string]*Package // by import path
	busy map[string]bool     // import cycle detection
}

// NewLoader builds a loader rooted at the directory holding go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: abs,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		busy:       map[string]bool{},
	}, nil
}

func readModulePath(goMod string) (string, error) {
	data, err := os.ReadFile(goMod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", goMod)
}

// Load resolves each pattern to packages and type-checks them. Patterns:
//
//	./...            every package under the module root
//	./dir/...        every package under dir
//	./dir            the single package in dir
//	path/to/dir      likewise, for an existing directory
//	mod/import/path  a module import path
//
// Directories named testdata, or whose name starts with "." or "_", are
// skipped by the ... walk (matching the go tool), but may be named
// directly — that is how the driver tests load fixture packages.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			if root == "." || root == "" {
				root = l.ModuleRoot
			} else {
				root = l.absDir(root)
			}
			expanded, err := l.walk(root)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		default:
			add(l.absDir(pat))
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// absDir maps a pattern element to an absolute directory: either an
// existing path (relative to the working directory or the module root)
// or a module import path.
func (l *Loader) absDir(pat string) string {
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	if rest, ok := strings.CutPrefix(pat, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, rest)
	}
	if pat == l.ModulePath {
		return l.ModuleRoot
	}
	if st, err := os.Stat(pat); err == nil && st.IsDir() {
		abs, err := filepath.Abs(pat)
		if err == nil {
			return abs
		}
	}
	return filepath.Join(l.ModuleRoot, strings.TrimPrefix(pat, "./"))
}

// walk finds every directory under root containing non-test .go files.
func (l *Loader) walk(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPath maps an absolute directory to its module import path.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir, returning nil if
// the directory holds no non-test Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	pkg, err := CheckDir(l.Fset, dir, path, importerFunc(l.importFor))
	if pkg != nil {
		l.pkgs[path] = pkg
	}
	return pkg, err
}

// CheckDir parses the non-test .go files in dir and type-checks them as
// the package path, resolving imports through imp. It returns nil, nil
// when dir holds no such file.
func CheckDir(fset *token.FileSet, dir, path string, imp types.Importer) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Closure expands pkgs to their full module-internal dependency
// closure, drawing on the packages the loader already type-checked
// while resolving imports. The result is deterministic: the input
// packages in order, then the discovered dependencies sorted by import
// path. Analyzers that follow state across packages need the closure —
// a pattern like ./internal/sim must still see the helper packages the
// sim data path calls into.
func (l *Loader) Closure(pkgs []*Package) []*Package {
	seen := map[string]bool{}
	out := make([]*Package, 0, len(pkgs))
	for _, p := range pkgs {
		if !seen[p.Path] {
			seen[p.Path] = true
			out = append(out, p)
		}
	}
	var extra []string
	var visit func(t *types.Package)
	visit = func(t *types.Package) {
		path := t.Path()
		if seen[path] {
			return
		}
		seen[path] = true
		if dep, ok := l.pkgs[path]; ok {
			extra = append(extra, path)
			for _, imp := range dep.Types.Imports() {
				visit(imp)
			}
			return
		}
		// Not module-internal (stdlib): no syntax to analyze.
	}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			visit(imp)
		}
	}
	sort.Strings(extra)
	for _, path := range extra {
		out = append(out, l.pkgs[path])
	}
	return out
}

// importFor resolves an import encountered while type-checking:
// module-internal packages recurse through the loader, everything else
// is delegated to the stdlib source importer.
func (l *Loader) importFor(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadDir(l.absDir(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
