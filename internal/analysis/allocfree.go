package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Allocfree is the static half of the zero-allocation gate for the
// wire/observe hot paths (the runtime half is the paired -benchmem
// benchmarks behind `make bench-alloc`). A function whose doc comment
// contains a `//lint:hotpath` line must not contain constructs that
// heap-allocate:
//
//   - interface boxing of non-pointer-shaped values (call arguments,
//     assignments, returns, conversions)
//   - capturing function literals (closure contexts escape)
//   - fmt/errors/log calls (allocate per call; build errors as
//     package-level sentinels instead)
//   - append without a capacity hint (targets not created by a 3-arg
//     make in the same function may grow per call)
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions
//   - make, new, &composite-literal, slice/map composite literals,
//     and go statements
//   - calls to module-internal functions not themselves marked
//     //lint:hotpath (the transitive contract, checked module-wide)
//
// Dynamic calls (function values, interface methods) and unmarked
// stdlib calls are assumed allocation-free; the benchmarks catch what
// the static over-approximation cannot see, and `//lint:ignore
// allocfree <reason>` documents the deliberate exceptions (amortized
// buffer growth).
var Allocfree = &Analyzer{
	Name: "allocfree",
	Doc:  "forbid heap allocations in functions marked //lint:hotpath",
	Run:  runAllocfree,
}

// isHotpathMarked reports whether the declaration's doc comment carries
// a //lint:hotpath line.
func isHotpathMarked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//lint:hotpath") {
			return true
		}
	}
	return false
}

func runAllocfree(pass *Pass) error {
	// Collect every marked function of the module first, so a hotpath
	// call verifies regardless of package or declaration order.
	hotpath := map[*types.Func]bool{}
	type markedDecl struct {
		fd   *ast.FuncDecl
		info *types.Info
	}
	var marked []markedDecl
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHotpathMarked(fd) {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				hotpath[fn] = true
				marked = append(marked, markedDecl{fd, pkg.Info})
			}
		}
	}
	for _, m := range marked {
		checkHotpathBody(pass, m.info, m.fd, hotpath)
	}
	return nil
}

func checkHotpathBody(pass *Pass, info *types.Info, fd *ast.FuncDecl, hotpath map[*types.Func]bool) {
	hinted := hintedSlices(info, fd.Body)
	sig, _ := info.Defs[fd.Name].Type().(*types.Signature)
	concats := topStringConcats(info, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkHotpathCall(pass, info, x, hinted, hotpath)
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && isStringType(info.TypeOf(x.Lhs[0])) {
				pass.Reportf(x.Pos(), "string += concatenation allocates in a //lint:hotpath function")
			}
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if boxes(info, info.TypeOf(x.Lhs[i]), x.Rhs[i]) {
						pass.Reportf(x.Rhs[i].Pos(), "assignment boxes %s into an interface, allocating in a //lint:hotpath function", types.TypeString(info.TypeOf(x.Rhs[i]), nil))
					}
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				t := info.TypeOf(x.Type)
				for _, v := range x.Values {
					if boxes(info, t, v) {
						pass.Reportf(v.Pos(), "declaration boxes %s into an interface, allocating in a //lint:hotpath function", types.TypeString(info.TypeOf(v), nil))
					}
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results() != nil && len(x.Results) == sig.Results().Len() {
				for i, res := range x.Results {
					if boxes(info, sig.Results().At(i).Type(), res) {
						pass.Reportf(res.Pos(), "return boxes %s into an interface, allocating in a //lint:hotpath function", types.TypeString(info.TypeOf(res), nil))
					}
				}
			}
		case *ast.BinaryExpr:
			if concats[x] {
				pass.Reportf(x.Pos(), "string concatenation allocates in a //lint:hotpath function")
			}
		case *ast.FuncLit:
			if capturesOuter(info, fd, x) {
				pass.Reportf(x.Pos(), "capturing function literal allocates a closure context in a //lint:hotpath function")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := x.X.(*ast.CompositeLit); isLit {
					pass.Reportf(x.Pos(), "&composite literal escapes to the heap in a //lint:hotpath function")
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(x.Pos(), "slice/map composite literal allocates in a //lint:hotpath function")
			}
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "go statement allocates a goroutine in a //lint:hotpath function")
		}
		return true
	})
}

// checkHotpathCall vets one call expression: allocating builtins,
// allocating conversions, banned stdlib packages, unverified
// module-internal callees, and interface boxing of arguments.
func checkHotpathCall(pass *Pass, info *types.Info, call *ast.CallExpr, hinted map[types.Object]bool, hotpath map[*types.Func]bool) {

	// Type conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			arg := call.Args[0]
			if boxes(info, target, arg) {
				pass.Reportf(call.Pos(), "conversion boxes %s into an interface, allocating in a //lint:hotpath function", types.TypeString(info.TypeOf(arg), nil))
				return
			}
			at := info.TypeOf(arg)
			if at != nil && convAllocates(target, at) {
				pass.Reportf(call.Pos(), "%s(%s) conversion allocates in a //lint:hotpath function", types.TypeString(target, nil), types.TypeString(at, nil))
			}
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.ObjectOf(id).(*types.Builtin); isB {
			switch id.Name {
			case "append":
				if len(call.Args) > 0 {
					root := rootIdent(call.Args[0])
					if root == nil || !hinted[info.ObjectOf(root)] {
						pass.Reportf(call.Pos(), "append without a same-function capacity hint may grow the backing array in a //lint:hotpath function")
					}
				}
			case "make":
				pass.Reportf(call.Pos(), "make allocates in a //lint:hotpath function")
			case "new":
				pass.Reportf(call.Pos(), "new allocates in a //lint:hotpath function")
			}
			return
		}
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		return // dynamic call: function value or unresolvable; the benchmarks are the backstop
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return // interface method: dynamic dispatch, assumed covered by benchmarks
		}
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "fmt", "errors", "log":
			pass.Reportf(call.Pos(), "%s.%s allocates in a //lint:hotpath function; use package-level sentinels or preformatted values", pkg.Name(), fn.Name())
			return
		}
		// A method of an instantiated generic type is an object of its own;
		// the marker lives on the declared one.
		if moduleInternal(pass.ModulePath, pkg.Path()) && !hotpath[fn.Origin()] {
			pass.Reportf(call.Pos(), "//lint:hotpath function calls %s, which is not marked //lint:hotpath; mark it or suppress with a justification", funcDisplay(fn))
			return
		}
	}
	checkArgBoxing(pass, info, call, fn)
}

// checkArgBoxing flags concrete non-pointer-shaped arguments passed to
// interface-typed parameters.
func checkArgBoxing(pass *Pass, info *types.Info, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case sig.Variadic():
			continue // f(xs...): the slice is passed as-is
		default:
			continue
		}
		if boxes(info, pt, arg) {
			pass.Reportf(arg.Pos(), "argument boxes %s into an interface, allocating in a //lint:hotpath function", types.TypeString(info.TypeOf(arg), nil))
		}
	}
}

// calleeFunc resolves a call's static target function, if any.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// hintedSlices finds locals initialized with a 3-arg make — the only
// append targets the analyzer trusts not to grow per call.
func hintedSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "make" {
			return
		}
		if _, isB := info.ObjectOf(id).(*types.Builtin); !isB {
			return
		}
		if lid, ok := lhs.(*ast.Ident); ok {
			if obj := info.ObjectOf(lid); obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					mark(x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					mark(x.Names[i], x.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// topStringConcats returns the maximal non-constant string-typed +
// expressions (a+b+c reports once, at the outermost +).
func topStringConcats(info *types.Info, body *ast.BlockStmt) map[*ast.BinaryExpr]bool {
	isConcat := func(e ast.Expr) *ast.BinaryExpr {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok || b.Op != token.ADD {
			return nil
		}
		tv := info.Types[b]
		if !isStringType(tv.Type) || tv.Value != nil {
			return nil
		}
		return b
	}
	all := map[*ast.BinaryExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if b := isConcat(e); b != nil {
				all[b] = true
			}
		}
		return true
	})
	for b := range all {
		if inner := isConcat(b.X); inner != nil {
			delete(all, inner)
		}
		if inner := isConcat(b.Y); inner != nil {
			delete(all, inner)
		}
	}
	return all
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerShaped reports whether values of t fit in an interface's data
// word without allocating: pointers, channels, maps, and functions.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// boxes reports whether assigning arg to a target of type target wraps
// a concrete non-pointer-shaped value in an interface, allocating. A
// type-parameter target is not an interface value, although
// types.IsInterface says so of its constraint: the callee is
// instantiated for the argument's type and nothing is boxed.
func boxes(info *types.Info, target types.Type, arg ast.Expr) bool {
	if target == nil || !types.IsInterface(target) {
		return false
	}
	if _, isParam := types.Unalias(target).(*types.TypeParam); isParam {
		return false
	}
	at := info.TypeOf(arg)
	if at == nil || types.IsInterface(at.Underlying()) {
		return false
	}
	if tv, ok := info.Types[arg]; ok && tv.IsNil() {
		return false
	}
	return !pointerShaped(at)
}

// convAllocates reports conversions that copy backing storage:
// string <-> []byte / []rune.
func convAllocates(target, arg types.Type) bool {
	tStr, aStr := isStringType(target), isStringType(arg)
	_, tSlice := target.Underlying().(*types.Slice)
	_, aSlice := arg.Underlying().(*types.Slice)
	return (tStr && aSlice) || (aStr && tSlice)
}

// capturesOuter reports whether the function literal references any
// object declared in the enclosing function outside the literal itself
// (package-level and universe objects do not force a closure context).
func capturesOuter(info *types.Info, outer *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		pos := obj.Pos()
		if pos >= outer.Pos() && pos < lit.Pos() {
			captured = true
		}
		return true
	})
	return captured
}
