package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// Atomicguard enforces the sync/atomic discipline the race detector
// only checks under contention: once any code accesses a field through
// sync/atomic, *every* access module-wide must go through sync/atomic.
// A mixed plain read can see a torn or stale value and never trips
// -race unless the two accesses actually collide during the test run —
// this analyzer makes the bug class a compile-time (lint-time) error
// instead of a scheduling-dependent one.
//
// Both directions of the import graph matter (the atomic access may be
// in a package that imports the one with the plain access), so the
// sites of every package are collected first and the verdicts issued
// over the whole module. Only fields whose type sync/atomic can operate
// on (sized integers, uintptr, unsafe.Pointer) are tracked as plain
// uses. Fields of the typed atomic wrappers
// (atomic.Int64 etc.) are out of scope: their methods are the only way
// to touch the value. Address escapes through intermediate pointers
// (p := &s.f; atomic.AddInt64(p, 1)) are not traced.
var Atomicguard = &Analyzer{
	Name: "atomicguard",
	Doc:  "a field accessed via sync/atomic anywhere must be accessed only via sync/atomic, everywhere",
	Run:  runAtomicguard,
}

func runAtomicguard(pass *Pass) error {
	// Every site, module-wide, where a field's address is passed to a
	// sync/atomic function, and every other access to the field.
	atomicSites := map[*types.Var][]token.Pos{}
	plainSites := map[*types.Var][]token.Pos{}
	for _, pkg := range pass.Pkgs {
		// First pass: find &field arguments of sync/atomic calls, and
		// remember the selector nodes involved so the second pass does
		// not double-count them as plain uses.
		atomicSels := map[*ast.SelectorExpr]bool{}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicCall(pkg.Info, call) {
					return true
				}
				for _, arg := range call.Args {
					sel, field := addressedField(pass, pkg.Info, arg)
					if field == nil {
						continue
					}
					atomicSels[sel] = true
					atomicSites[field] = append(atomicSites[field], sel.Pos())
				}
				return true
			})
		}
		// Second pass: every other access to a trackable field.
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || atomicSels[sel] {
					return true
				}
				field := fieldOf(pass, pkg.Info, sel)
				if field == nil || !atomicCapable(field.Type()) {
					return true
				}
				if benignFieldUse(pkg.Info, file, sel) {
					return true
				}
				plainSites[field] = append(plainSites[field], sel.Pos())
				return true
			})
		}
	}

	// Any field with both atomic and plain uses is a mixed-access bug,
	// reported at every plain site with a pointer to the first atomic
	// site.
	fields := make([]*types.Var, 0, len(atomicSites))
	for f := range atomicSites {
		if len(plainSites[f]) > 0 {
			fields = append(fields, f)
		}
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
	for _, field := range fields {
		atomicAt := pass.Fset.Position(slices.Min(atomicSites[field]))
		plain := plainSites[field]
		slices.Sort(plain)
		for _, site := range plain {
			pass.Reportf(site, "field %s is accessed via sync/atomic (e.g. %s:%d) but non-atomically here; every access must go through sync/atomic",
				field.Name(), shortPath(atomicAt.Filename), atomicAt.Line)
		}
	}
	return nil
}

// atomicFuncs are the sync/atomic package-level functions whose pointer
// argument marks the pointed-to field as atomically accessed.
var atomicFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pn, ok := infoSelectorPackage(info, sel)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return false
	}
	return atomicFuncs[sel.Sel.Name]
}

// addressedField unwraps &s.f and &s.f[i] argument shapes to the struct
// field being atomically accessed, returning the selector node too so
// the caller can exclude it from the plain-use scan.
func addressedField(pass *Pass, info *types.Info, arg ast.Expr) (*ast.SelectorExpr, *types.Var) {
	un, ok := arg.(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, nil
	}
	inner := un.X
	if idx, ok := inner.(*ast.IndexExpr); ok {
		inner = idx.X // &s.f[i]: the array field carries the discipline
	}
	sel, ok := inner.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	return sel, fieldOf(pass, info, sel)
}

// fieldOf resolves sel to a module-declared struct field.
func fieldOf(pass *Pass, info *types.Info, sel *ast.SelectorExpr) *types.Var {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	if v.Pkg() == nil || !moduleInternal(pass.ModulePath, v.Pkg().Path()) {
		return nil
	}
	return v
}

// atomicCapable reports whether sync/atomic has operations for t:
// sized integers, uintptr, unsafe.Pointer, and arrays of those (an
// array element address can be an atomic operand).
func atomicCapable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch u.Kind() {
		case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr, types.UnsafePointer:
			return true
		}
	case *types.Array:
		return atomicCapable(u.Elem())
	}
	return false
}

// benignFieldUse filters accesses that never observe the field's value:
// len/cap of an array field, and index-only `for i := range s.f` loops.
func benignFieldUse(info *types.Info, file *ast.File, sel *ast.SelectorExpr) bool {
	benign := false
	ast.Inspect(file, func(n ast.Node) bool {
		if benign {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if len(x.Args) == 1 && x.Args[0] == sel {
				if id, ok := x.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
					if _, isB := info.ObjectOf(id).(*types.Builtin); isB {
						benign = true
					}
				}
			}
		case *ast.RangeStmt:
			if x.X == sel && x.Value == nil {
				if _, isArr := info.TypeOf(sel).Underlying().(*types.Array); isArr {
					benign = true
				}
			}
		}
		return true
	})
	return benign
}

// shortPath keeps the last two path segments of an absolute filename so
// cross-package messages stay readable.
func shortPath(p string) string {
	slashes := 0
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' || p[i] == '\\' {
			slashes++
			if slashes == 2 {
				return p[i+1:]
			}
		}
	}
	return p
}
