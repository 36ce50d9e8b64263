package analysis_test

import (
	"go/ast"
	"go/types"
	"testing"

	"p2psplice/internal/analysis"
)

// markFact is attached to every function the probe analyzer sees.
type markFact struct{ From string }

func (*markFact) AFact() {}

// TestFactsSurviveDependencyOrder drives the whole engine stack with the
// real Loader: load only testdata/facts/top, expand to the dependency
// closure (pulling in base), hand the packages to the engine top-first,
// and prove that (a) the engine reorders them so base runs first, and
// (b) object facts exported on base's functions while analyzing base
// are importable from top.
func TestFactsSurviveDependencyOrder(t *testing.T) {
	l, err := analysis.NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("testdata/facts/top")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected 1 package from the pattern, got %d", len(pkgs))
	}
	closure := l.Closure(pkgs)
	if len(closure) != 2 {
		t.Fatalf("closure should pull in base: got %d packages", len(closure))
	}
	const (
		topPath  = "p2psplice/internal/analysis/testdata/facts/top"
		basePath = "p2psplice/internal/analysis/testdata/facts/base"
	)
	if closure[0].Path != topPath || closure[1].Path != basePath {
		t.Fatalf("closure order: got %s, %s", closure[0].Path, closure[1].Path)
	}

	var ranOrder []string
	imported := map[string]string{} // callee name -> fact's From
	probe := &analysis.Analyzer{
		Name:      "factprobe",
		Doc:       "test probe: round-trips object facts",
		FactTypes: []analysis.Fact{(*markFact)(nil)},
		Run: func(pass *analysis.Pass) error {
			ranOrder = append(ranOrder, pass.Pkg.Path())
			for _, file := range pass.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						pass.ExportObjectFact(fn, &markFact{From: pass.Pkg.Path()})
					}
				}
			}
			for _, obj := range pass.TypesInfo.Uses {
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
					continue
				}
				var mf markFact
				if pass.ImportObjectFact(fn, &mf) {
					imported[fn.Name()] = mf.From
				}
			}
			return nil
		},
	}

	// Hand the engine the closure top-first: dependency ordering is the
	// engine's job, not the caller's.
	if _, err := analysis.RunResult([]*analysis.Analyzer{probe}, closure); err != nil {
		t.Fatal(err)
	}
	if len(ranOrder) != 2 || ranOrder[0] != basePath || ranOrder[1] != topPath {
		t.Fatalf("engine did not run dependencies first: %v", ranOrder)
	}
	for _, callee := range []string{"Tick", "Tock"} {
		if imported[callee] != basePath {
			t.Errorf("fact for base.%s not imported in top: got %q", callee, imported[callee])
		}
	}
}
