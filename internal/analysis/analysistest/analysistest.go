// Package analysistest is a golden-fixture harness for splicelint
// analyzers, modeled on golang.org/x/tools/go/analysis/analysistest
// but built only on the stdlib. Fixture files live under a testdata
// directory and carry expectations as trailing comments:
//
//	time.Now() // want "call to time.Now"
//
// Each `// want "rx"` comment demands exactly one finding on its line
// whose message matches the regexp; findings without a matching want,
// and wants without a matching finding, fail the test.
package analysistest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"p2psplice/internal/analysis"
)

// The stdlib source importer re-type-checks the standard library from
// source; share one across all fixture runs in the process.
var (
	stdOnce sync.Once
	stdFset *token.FileSet
	stdImp  types.Importer
)

func sharedImporter() (*token.FileSet, types.Importer) {
	stdOnce.Do(func() {
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil)
	})
	return stdFset, stdImp
}

// Run type-checks the fixture package in dir as if its import path were
// asPath (so analyzers with path-scoped Match fire), runs the analyzers
// together, and compares their findings against the // want comments.
// At least one analyzer must match asPath, or the fixture is vacuous.
func Run(t *testing.T, dir, asPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	matched := false
	for _, a := range analyzers {
		matched = matched || a.Match == nil || a.Match(asPath)
	}
	if !matched {
		t.Fatalf("no analyzer matches package path %s; fixture would be vacuous", asPath)
	}
	RunModule(t, dir, map[string]string{".": asPath}, analyzers...)
}

// RunNoMatch asserts the analyzer reports nothing for the fixture when
// loaded under a package path outside the analyzer's scope — the
// scoping half of the contract.
func RunNoMatch(t *testing.T, dir string, a *analysis.Analyzer, asPath string) {
	t.Helper()
	if a.Match == nil {
		t.Fatalf("analyzer %s has no Match; RunNoMatch is meaningless", a.Name)
	}
	if a.Match(asPath) {
		t.Fatalf("analyzer %s matches %s; pick an out-of-scope path", a.Name, asPath)
	}
	pkgs := loadModuleFixture(t, dir, map[string]string{".": asPath})
	res, err := analysis.RunResult([]*analysis.Analyzer{a}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("analyzer %s reported outside its scope (%s): %s", a.Name, asPath, f)
	}
}

// RunModule exercises analyzers across a multi-package fixture: a
// miniature module whose packages live in subdirectories of dir. The
// paths map names each subdirectory's fake import path (fixture code
// imports the fake paths directly, e.g. `import
// "p2psplice/internal/helper"`). Packages are type-checked against each
// other and analyzed together, exactly as in a real module run, and
// // want comments are honored in every fixture file. The packages are
// handed to the runner twice, in import-path order and reversed, and
// must yield the same result: putting dependencies first is the
// runner's job. It returns the runner's full result so callers can also
// assert on dead ignores.
func RunModule(t *testing.T, dir string, paths map[string]string, analyzers ...*analysis.Analyzer) *analysis.Result {
	t.Helper()
	pkgs := loadModuleFixture(t, dir, paths)
	res, err := analysis.RunResult(analyzers, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	reversed := slices.Clone(pkgs)
	slices.Reverse(reversed)
	again, err := analysis.RunResult(analyzers, reversed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, res) {
		t.Errorf("result depends on the order the packages are passed in:\nsorted:   %v\nreversed: %v", res, again)
	}
	checkWants(t, pkgs, res.Findings)
	return res
}

// loadModuleFixture type-checks every subdirectory fixture package under
// its fake import path and returns them in import-path order; the
// fixture importer loads module-internal imports on demand.
func loadModuleFixture(t *testing.T, dir string, paths map[string]string) []*analysis.Package {
	t.Helper()
	fset, std := sharedImporter()
	fm := &fixtureModule{
		fset: fset,
		std:  std,
		dirs: map[string]string{},
		pkgs: map[string]*analysis.Package{},
	}
	var order []string
	for sub, path := range paths {
		fm.dirs[path] = filepath.Join(dir, sub)
		order = append(order, path)
	}
	sort.Strings(order)
	var pkgs []*analysis.Package
	for _, path := range order {
		pkg, err := fm.load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// fixtureModule resolves fake module-internal import paths to fixture
// subdirectories, and everything else through the stdlib source
// importer — the analysistest equivalent of the real Loader.
type fixtureModule struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // fake import path -> fixture dir
	pkgs map[string]*analysis.Package
}

func (m *fixtureModule) Import(path string) (*types.Package, error) {
	if _, ok := m.dirs[path]; ok {
		pkg, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

func (m *fixtureModule) load(path string) (*analysis.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := m.dirs[path]
	pkg, err := analysis.CheckDir(m.fset, dir, path, m)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysistest: no fixture files in %s", dir)
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// checkWants matches findings against // want comments line by line,
// over every package of a module fixture.
func checkWants(t *testing.T, pkgs []*analysis.Package, findings []analysis.Finding) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						rx, err := regexp.Compile(strings.ReplaceAll(m[1], `\"`, `"`))
						if err != nil {
							t.Fatalf("bad want regexp %q: %v", m[1], err)
						}
						pos := pkg.Fset.Position(c.Pos())
						wants[key{pos.Filename, pos.Line}] = append(wants[key{pos.Filename, pos.Line}], rx)
					}
				}
			}
		}
	}
	for _, f := range findings {
		k := key{f.File, f.Line}
		matched := -1
		for i, rx := range wants[k] {
			if rx.MatchString(f.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, rxs := range wants {
		for _, rx := range rxs {
			t.Errorf("%s:%d: want %q: no matching finding", k.file, k.line, rx)
		}
	}
}
