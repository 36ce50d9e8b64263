package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Mutexguard enforces the `// guards X` / `// guarded by mu` field
// comment convention. A field whose comment names a guarding mutex may
// only be read or written inside a function that either locks that
// mutex (a `.<mutex>.Lock()` or `.<mutex>.RLock()` call anywhere in the
// body) or advertises a caller-held lock by ending its name in
// "Locked". The check is flow-insensitive by design: it catches the
// common failure (a method touching guarded state with no locking at
// all) without a full happens-before analysis. It also flags guards
// comments naming fields that do not exist, so the annotations cannot
// rot.
//
// Recognized comment forms, on struct fields:
//
//	mu sync.Mutex // guards a, b and c
//	x  int        // guarded by mu
//	y  int        // ... guarded by node.mu: ...   (cross-object guard)
var Mutexguard = &Analyzer{
	Name: "mutexguard",
	Doc:  "flag guarded-field access in functions that never lock the guarding mutex",
	Run:  runMutexguard,
}

// guardInfo describes one struct's guard annotations.
type guardInfo struct {
	strct *types.Named
	// guardedBy maps a field name to the final component of its
	// guarding mutex path ("mu" for both `mu` and `node.mu`).
	guardedBy map[string]string
}

func runMutexguard(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		guards := collectGuards(pass, pkg)
		if len(guards) == 0 {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkGuardedAccess(pass, pkg.Info, fn, guards)
			}
		}
	}
	return nil
}

// collectGuards parses guard comments from every struct type declared
// in pkg.
func collectGuards(pass *Pass, pkg *Package) []*guardInfo {
	var out []*guardInfo
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj := pkg.Info.Defs[ts.Name]
			if obj == nil {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			gi := &guardInfo{strct: named, guardedBy: map[string]string{}}
			fieldNames := map[string]bool{}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, f := range st.Fields.List {
				text := fieldCommentText(f)
				if text == "" {
					continue
				}
				if mutexNames, ok := parseGuardsClause(text); ok && len(f.Names) > 0 {
					// `mu sync.Mutex // guards a, b` — f is the mutex.
					for _, g := range mutexNames {
						if !fieldNames[g] {
							pass.Reportf(f.Pos(), "guards comment names unknown field %q (struct %s)", g, ts.Name.Name)
							continue
						}
						gi.guardedBy[g] = f.Names[0].Name
					}
				}
				if mu, ok := parseGuardedByClause(text); ok {
					// `x int // guarded by mu` — f is the guarded field.
					for _, name := range f.Names {
						gi.guardedBy[name.Name] = mu
					}
				}
			}
			if len(gi.guardedBy) > 0 {
				out = append(out, gi)
			}
			return true
		})
	}
	return out
}

// fieldCommentText joins a field's doc and line comments.
func fieldCommentText(f *ast.Field) string {
	var parts []string
	if f.Doc != nil {
		parts = append(parts, f.Doc.Text())
	}
	if f.Comment != nil {
		parts = append(parts, f.Comment.Text())
	}
	return strings.Join(parts, " ")
}

// parseGuardsClause extracts field names from "guards a, b and c".
func parseGuardsClause(text string) ([]string, bool) {
	idx := strings.Index(text, "guards ")
	if idx < 0 {
		return nil, false
	}
	rest := text[idx+len("guards "):]
	if end := strings.IndexAny(rest, ".:;("); end >= 0 {
		rest = rest[:end]
	}
	var names []string
	for _, w := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\n' }) {
		if w == "and" || w == "" {
			continue
		}
		if !isIdentLike(w) {
			break // prose follows the field list
		}
		names = append(names, w)
	}
	return names, len(names) > 0
}

// parseGuardedByClause extracts the mutex's final path component from
// "guarded by mu" or "guarded by node.mu".
func parseGuardedByClause(text string) (string, bool) {
	idx := strings.Index(text, "guarded by ")
	if idx < 0 {
		return "", false
	}
	rest := text[idx+len("guarded by "):]
	fields := strings.FieldsFunc(rest, func(r rune) bool {
		return r == ' ' || r == ':' || r == ',' || r == ';' || r == ')' || r == '\n'
	})
	if len(fields) == 0 {
		return "", false
	}
	path := fields[0]
	if i := strings.LastIndex(path, "."); i >= 0 {
		path = path[i+1:]
	}
	if !isIdentLike(path) {
		return "", false
	}
	return path, true
}

func isIdentLike(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// checkGuardedAccess flags guarded-field selector accesses in fn when
// fn neither locks the guarding mutex nor is named *Locked.
func checkGuardedAccess(pass *Pass, info *types.Info, fn *ast.FuncDecl, guards []*guardInfo) {
	if strings.HasSuffix(fn.Name.Name, "Locked") {
		return
	}
	locked := lockedMutexes(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := info.TypeOf(sel.X)
		if recv == nil {
			return true
		}
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return true
		}
		for _, gi := range guards {
			if gi.strct.Obj() != named.Obj() {
				continue
			}
			mu, guarded := gi.guardedBy[sel.Sel.Name]
			if !guarded || locked[mu] {
				continue
			}
			pass.Reportf(sel.Pos(), "%s.%s is guarded by %q but %s never locks it (rename to %sLocked if the caller holds it)",
				named.Obj().Name(), sel.Sel.Name, mu, fn.Name.Name, fn.Name.Name)
		}
		return true
	})
}

// lockedMutexes collects the names of mutex fields that fn Lock()s or
// RLock()s anywhere in its body: a call shaped `<expr>.mu.Lock()`
// contributes "mu".
func lockedMutexes(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := sel.X.(*ast.SelectorExpr)
		if ok {
			out[inner.Sel.Name] = true
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
	return out
}
