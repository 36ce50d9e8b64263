package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// DeterministicPackages lists the packages that must be bit-for-bit
// deterministic: the discrete-event simulator and everything on the
// simulated data path. The paper's GENI testbed results had to be
// averaged over repetitions because the testbed was not deterministic;
// our substitute claims to do better, so any wall-clock read, global
// (unseeded) RNG use, or order-sensitive map iteration in these
// packages silently invalidates the headline stall/startup figures.
// The set is closed under imports, and Determinism enforces that: a
// package in it imports no other module package, so everything the
// experiment harness runs is checked here. The real-network stack
// (peer, tracker, shaper, cdn, wire), whose wall-clock timing is what
// the emulation is compared against, stays outside.
var DeterministicPackages = []string{
	"p2psplice/internal/sim",
	"p2psplice/internal/netem",
	"p2psplice/internal/simpeer",
	"p2psplice/internal/splicer",
	"p2psplice/internal/media",
	"p2psplice/internal/experiment",
	"p2psplice/internal/trace",
	"p2psplice/internal/fault",
	"p2psplice/internal/tracereport",
	"p2psplice/internal/core",
	"p2psplice/internal/container",
	"p2psplice/internal/player",
	"p2psplice/internal/reputation",
}

// Determinism enforces bit-for-bit reproducibility in the
// DeterministicPackages. In each of their files it reports:
//   - an import of a module package outside the set, since the set must
//     be closed under imports: a call can reach nondeterminism in another
//     module package only through an import, so checking every package
//     of a closed set checks everything the set runs;
//   - a call to a source: time.Now/Since/Until, a process-global
//     math/rand(/v2) function (seeded constructors are fine), or anything
//     in crypto/rand;
//   - a reference to a source, such as `var now = time.Now`: no call
//     exists at the site, yet every later use of the value is one;
//   - a for-range over a map that appends to a variable declared outside
//     the loop with no sort of that variable later in the same block.
//
// Dynamic calls (interface methods, function values) are not resolved;
// injected-clock indirection is therefore invisible by design — that is
// exactly the sanctioned escape hatch.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "forbid wall-clock reads, global RNG, entropy, unsorted map-iteration output and imports of non-deterministic module packages in deterministic packages",
	Match: deterministic,
	Run:   runDeterminism,
}

// deterministic reports whether an import path is in DeterministicPackages.
var deterministic = matchPaths(DeterministicPackages...)

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
// and describes it for findings.
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

func runDeterminism(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err == nil && moduleInternal(pass.ModulePath, path) && !deterministic(path) {
					pass.Reportf(imp.Pos(), "import of %s, which is outside DeterministicPackages; the deterministic set must stay closed under imports", path)
				}
			}
			// Pre-order: a call is visited before its callee identifier.
			calls := map[*ast.Ident]bool{}
			ast.Inspect(file, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.CallExpr:
					switch fun := x.Fun.(type) {
					case *ast.Ident:
						calls[fun] = true
					case *ast.SelectorExpr:
						calls[fun.Sel] = true
					}
				case *ast.Ident:
					obj, ok := pkg.Info.Uses[x].(*types.Func)
					if !ok {
						break
					}
					if desc, ok := sourceDesc(obj); ok {
						kind := "reference to"
						if calls[x] {
							kind = "call to"
						}
						pass.Reportf(x.Pos(), "%s %s leaks nondeterminism into a deterministic package; inject a clock or seeded RNG instead", kind, desc)
					}
				}
				return true
			})
			for _, hit := range unsortedMapRanges(pkg.Info, file) {
				pass.Reportf(hit.pos, "map iteration order feeds %q without a subsequent sort; iteration order is nondeterministic", hit.varName)
			}
		}
	}
	return nil
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
