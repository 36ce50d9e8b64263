package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DeterministicPackages lists the packages that must be bit-for-bit
// deterministic: the discrete-event simulator and everything on the
// simulated data path. The paper's GENI testbed results had to be
// averaged over repetitions because the testbed was not deterministic;
// our substitute claims to do better, so any wall-clock read, global
// (unseeded) RNG use, or order-sensitive map iteration in these
// packages silently invalidates the headline stall/startup figures.
// The list is the closure of the emulation data path: everything the
// experiment harness reaches, directly or through helpers, except the
// real-network stack (peer, tracker, shaper, cdn) whose wall-clock
// timing is the thing the emulation is compared against.
var DeterministicPackages = []string{
	"p2psplice/internal/sim",
	"p2psplice/internal/netem",
	"p2psplice/internal/simpeer",
	"p2psplice/internal/splicer",
	"p2psplice/internal/media",
	"p2psplice/internal/experiment",
	"p2psplice/internal/metrics",
	"p2psplice/internal/trace",
	"p2psplice/internal/fault",
	"p2psplice/internal/tracereport",
	"p2psplice/internal/core",
	"p2psplice/internal/container",
	"p2psplice/internal/player",
	"p2psplice/internal/reputation",
}

// Determinism enforces bit-for-bit reproducibility in the
// DeterministicPackages. It walks every function body and every
// package-level var initializer of every module package, in dependency
// order, and classifies each use of a function once. In a deterministic
// package it reports:
//   - a call to a source: time.Now/Since/Until, a process-global
//     math/rand(/v2) function (seeded constructors are fine), or anything
//     in crypto/rand;
//   - a reference to a source, such as `var now = time.Now`: no call
//     exists at the site, yet every later use of the value is one;
//   - a use of a module-internal function outside the deterministic set
//     that transitively reaches a source, with the call chain;
//   - a for-range over a map that appends to a variable declared outside
//     the loop with no sort of that variable later in the same block.
//
// The chains come from one taint map, filled bottom-up package by
// package in dependency order: a function that contains a source, or
// uses a tainted function, is tainted. A var initializer has no function
// object, so it reports but taints nothing. Dynamic calls (interface
// methods, function values) are not resolved; injected-clock indirection
// is therefore invisible by design — that is exactly the sanctioned
// escape hatch.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "forbid wall-clock reads, global RNG, entropy and unsorted map-iteration output in deterministic packages, directly or through helper call chains",
	Match: matchPaths(DeterministicPackages...),
	Run:   runDeterminism,
}

// wall-clock functions in package time. time.Since and time.Until call
// time.Now internally, so they are just as nondeterministic.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// math/rand package-level functions that are allowed because they only
// construct explicitly seeded generators (the v2 source constructors
// included).
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// sourceDesc reports whether obj is a nondeterministic source function
// and describes it for findings and call chains.
func sourceDesc(obj *types.Func) (string, bool) {
	pkg := obj.Pkg()
	if pkg == nil {
		return "", false
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false // methods: only package-level functions are sources
	}
	switch pkg.Path() {
	case "time":
		if wallClockFuncs[obj.Name()] {
			return "time." + obj.Name() + " (wall clock)", true
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[obj.Name()] {
			return "rand." + obj.Name() + " (process-global RNG)", true
		}
	case "crypto/rand":
		return "crypto/rand." + obj.Name() + " (entropy read)", true
	}
	return "", false
}

// funcUse is one appearance of a function object: either the callee of a
// call expression or a bare reference (a stored or passed function
// value).
type funcUse struct {
	obj  *types.Func
	pos  token.Pos
	call bool
}

// walkNode is one unit of the walk: a function declaration's body, or a
// package-level var declaration (fn nil).
type walkNode struct {
	fn     *types.Func
	uses   []funcUse
	ranges []mapRangeHit
}

// source describes the node's first direct nondeterministic source, or
// returns "" if it has none.
func (n *walkNode) source() string {
	for _, u := range n.uses {
		if desc, ok := sourceDesc(u.obj); ok {
			return desc
		}
	}
	if len(n.ranges) > 0 {
		return fmt.Sprintf("unsorted map iteration feeding %q", n.ranges[0].varName)
	}
	return ""
}

func runDeterminism(pass *Pass) error {
	// taint maps every function that transitively reaches a
	// nondeterministic source to its call chain: the function itself
	// first, the source's description last. Packages come imports
	// first, so a callee in another package is final before any caller
	// is visited.
	taint := map[*types.Func][]string{}
	deterministic := matchPaths(DeterministicPackages...)
	for _, pkg := range pass.Pkgs {
		nodes := walkNodes(pkg)

		// Taint fixpoint within the package; chains are picked
		// first-use-in-source-order, which keeps output deterministic.
		for _, n := range nodes {
			if src := n.source(); n.fn != nil && src != "" {
				taint[n.fn] = []string{funcDisplay(n.fn), src}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range nodes {
				if n.fn == nil || taint[n.fn] != nil {
					continue
				}
				for _, u := range n.uses {
					if chain := taint[u.obj]; chain != nil {
						taint[n.fn] = append([]string{funcDisplay(n.fn)}, chain...)
						changed = true
						break
					}
				}
			}
		}

		// Reporting. The runner drops findings outside Match, so this
		// runs in every package; only deterministic packages surface
		// them.
		for _, n := range nodes {
			for _, u := range n.uses {
				if desc, ok := sourceDesc(u.obj); ok {
					kind := "reference to"
					if u.call {
						kind = "call to"
					}
					pass.Reportf(u.pos, "%s %s leaks nondeterminism into a deterministic package; inject a clock or seeded RNG instead", kind, desc)
					continue
				}
				callee := u.obj.Pkg()
				if callee == nil || !moduleInternal(pass.ModulePath, callee.Path()) || deterministic(callee.Path()) {
					continue
				}
				chain := taint[u.obj]
				if chain == nil {
					continue
				}
				if n.fn != nil {
					chain = append([]string{funcDisplay(n.fn)}, chain...)
				}
				pass.Reportf(u.pos, "call chain reaches nondeterminism: %s", strings.Join(chain, " -> "))
			}
			for _, hit := range n.ranges {
				pass.Reportf(hit.pos, "map iteration order feeds %q without a subsequent sort; iteration order is nondeterministic", hit.varName)
			}
		}
	}
	return nil
}

// walkNodes builds one node per function declaration with a body and
// one per package-level var declaration: every *types.Func used inside
// (called or referenced, including inside nested function literals,
// which are attributed to the enclosing node) plus its unsorted map
// ranges.
func walkNodes(pkg *Package) []*walkNode {
	var nodes []*walkNode
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			var n walkNode
			var root ast.Node
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
				if !ok || d.Body == nil {
					continue
				}
				n.fn, root = fn, d.Body
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				root = d
			default:
				continue
			}
			// Pre-order: a call is visited before its callee identifier.
			calls := map[*ast.Ident]bool{}
			ast.Inspect(root, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.CallExpr:
					switch fun := x.Fun.(type) {
					case *ast.Ident:
						calls[fun] = true
					case *ast.SelectorExpr:
						calls[fun.Sel] = true
					}
				case *ast.Ident:
					if obj, ok := pkg.Info.Uses[x].(*types.Func); ok {
						n.uses = append(n.uses, funcUse{obj: obj, pos: x.Pos(), call: calls[x]})
					}
				}
				return true
			})
			n.ranges = unsortedMapRanges(pkg.Info, root)
			nodes = append(nodes, &n)
		}
	}
	return nodes
}

// mapRangeHit is one `for range m` over a map whose body appends to an
// outer variable that is never sorted afterwards in the same block.
type mapRangeHit struct {
	pos     token.Pos
	varName string
}

// unsortedMapRanges finds the order-nondeterministic map-range
// construct anywhere under root. Map-range loops need the statement
// list around them to look for a later sort, so it walks blocks rather
// than single nodes.
func unsortedMapRanges(info *types.Info, root ast.Node) []mapRangeHit {
	var hits []mapRangeHit
	ast.Inspect(root, func(n ast.Node) bool {
		body, ok := blockStmts(n)
		if !ok {
			return true
		}
		for i, st := range body {
			rng, ok := st.(*ast.RangeStmt)
			if !ok {
				continue
			}
			hits = append(hits, checkMapRange(info, rng, body[i+1:])...)
		}
		return true
	})
	return hits
}

// infoSelectorPackage resolves sel.X to an imported package name, if it
// is one.
func infoSelectorPackage(info *types.Info, sel *ast.SelectorExpr) (*types.PkgName, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return pn, ok
}

// checkMapRange returns a hit for `for ... := range m` over a map when
// the body appends to a variable declared outside the loop and no
// statement after the loop (in the same block) sorts that variable.
func checkMapRange(info *types.Info, rng *ast.RangeStmt, rest []ast.Stmt) []mapRangeHit {
	t := info.TypeOf(rng.X)
	if t == nil {
		return nil
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return nil
	}
	targets := outerAppendTargets(info, rng)
	if len(targets) == 0 {
		return nil
	}
	for _, st := range rest {
		for obj := range targets {
			if sortsVariable(info, st, obj) {
				delete(targets, obj)
			}
		}
	}
	var hits []mapRangeHit
	names := make([]string, 0, len(targets))
	for obj := range targets {
		names = append(names, obj.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		hits = append(hits, mapRangeHit{pos: rng.Pos(), varName: name})
	}
	return hits
}

// outerAppendTargets finds variables declared outside the loop that the
// loop body appends to.
func outerAppendTargets(info *types.Info, rng *ast.RangeStmt) map[types.Object]bool {
	targets := map[types.Object]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(info, call.Fun, "append") || i >= len(as.Lhs) {
				continue
			}
			id := rootIdent(as.Lhs[i])
			if id == nil {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil || obj.Pos() == token.NoPos {
				continue
			}
			// Declared outside the loop?
			if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
				targets[obj] = true
			}
		}
		return true
	})
	return targets
}

// sortsVariable reports whether stmt calls a sort.* or slices.Sort*
// function mentioning obj.
func sortsVariable(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pn, ok := infoSelectorPackage(info, sel)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			mentioned := false
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.ObjectOf(id) == obj {
					mentioned = true
				}
				return !mentioned
			})
			if mentioned {
				found = true
			}
		}
		return !found
	})
	return found
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.ObjectOf(id).(*types.Builtin)
	return ok
}

// rootIdent unwraps x in expressions like x, x[i], x.f to the base
// identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// blockStmts returns the statement list of block-bearing nodes.
func blockStmts(n ast.Node) ([]ast.Stmt, bool) {
	switch v := n.(type) {
	case *ast.BlockStmt:
		return v.List, true
	case *ast.CaseClause:
		return v.Body, true
	case *ast.CommClause:
		return v.Body, true
	}
	return nil, false
}

// funcDisplay renders a function or method as pkg.Name or
// pkg.(*Recv).Name for call chains.
func funcDisplay(f *types.Func) string {
	pkgName := ""
	if f.Pkg() != nil {
		pkgName = f.Pkg().Name() + "."
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			ptr = "*"
		}
		if named, ok := rt.(*types.Named); ok {
			return fmt.Sprintf("%s(%s%s).%s", pkgName, ptr, named.Obj().Name(), f.Name())
		}
	}
	return pkgName + f.Name()
}
