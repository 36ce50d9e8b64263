package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Golifecycle flags `go` statements in non-test code that are not tied
// to any lifecycle mechanism. A goroutine is considered tied when
// either
//
//   - the enclosing function calls (*sync.WaitGroup).Add — the
//     convention here is wg.Add(1) before `go` and defer wg.Done()
//     inside — or
//   - the spawned function (a literal, or the body it go-calls) refers
//     to a sync.WaitGroup, selects/receives on a done channel, or
//     checks a context.Context's Done/Err.
//
// Untied goroutines leak past Close(), keep sockets alive between
// experiment repetitions, and make -race reports unreproducible, so
// every spawn must either join a WaitGroup or watch a cancellation
// signal.
var Golifecycle = &Analyzer{
	Name: "golifecycle",
	Doc:  "flag go statements not tied to a WaitGroup, done channel, or context",
	Run:  runGolifecycle,
}

func runGolifecycle(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				hasAdd := containsWaitGroupCall(pkg.Info, fn.Body, "Add")
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					g, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					if hasAdd || goroutineIsTied(pkg.Info, g) {
						return true
					}
					pass.Reportf(g.Pos(), "goroutine is not tied to a WaitGroup, done channel, or context; it can outlive its owner")
					return true
				})
			}
		}
	}
	return nil
}

// goroutineIsTied inspects the spawned function itself for lifecycle
// participation.
func goroutineIsTied(info *types.Info, g *ast.GoStmt) bool {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		// go obj.method() / go fn(): accept if a lifecycle-typed value
		// is the receiver or an argument (e.g. go run(ctx)).
		tied := false
		ast.Inspect(g.Call, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && isLifecycleType(info.TypeOf(e)) {
				tied = true
			}
			return !tied
		})
		return tied
	}
	tied := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if isWaitGroupMethod(info, sel, "Done") || isWaitGroupMethod(info, sel, "Wait") {
					tied = true
				}
				if t := info.TypeOf(sel.X); isContextType(t) &&
					(sel.Sel.Name == "Done" || sel.Sel.Name == "Err" || sel.Sel.Name == "Deadline") {
					tied = true
				}
			}
		case *ast.UnaryExpr:
			// <-ch on any channel: a done/quit channel receive.
			if n.Op == token.ARROW {
				tied = true
			}
		}
		return !tied
	})
	return tied
}

// containsWaitGroupCall reports whether body calls the named method on
// a sync.WaitGroup.
func containsWaitGroupCall(info *types.Info, body *ast.BlockStmt, method string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isWaitGroupMethod(info, sel, method) {
			found = true
		}
		return !found
	})
	return found
}

func isWaitGroupMethod(info *types.Info, sel *ast.SelectorExpr, method string) bool {
	if sel.Sel.Name != method {
		return false
	}
	t := info.TypeOf(sel.X)
	return isNamedType(t, "sync", "WaitGroup")
}

func isLifecycleType(t types.Type) bool {
	return isContextType(t) || isNamedType(t, "sync", "WaitGroup") || isChanType(t)
}

func isContextType(t types.Type) bool {
	return isNamedType(t, "context", "Context")
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isNamedType(t types.Type, pkg, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}
