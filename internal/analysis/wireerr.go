package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Wireerr flags discarded error returns from encode/decode/read/write
// style calls in the protocol and transport packages. A swallowed wire
// error turns a half-written message or truncated read into silent
// corruption that surfaces much later as a bogus measurement; these
// packages must handle, propagate, or explicitly suppress (with a
// //lint:ignore justification) every such error.
var Wireerr = &Analyzer{
	Name: "wireerr",
	Doc:  "flag discarded errors from encode/decode/read/write calls in wire-facing packages",
	Match: matchPaths(
		"p2psplice/internal/wire",
		"p2psplice/internal/peer",
		"p2psplice/internal/tracker",
		"p2psplice/internal/cdn",
	),
	Run: runWireerr,
}

// wireVerbs are the name fragments (lower-cased match) identifying
// serialization and transport calls.
var wireVerbs = []string{"encode", "decode", "read", "write", "marshal", "unmarshal", "send", "recv"}

func runWireerr(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					// foo.Write(b) as a bare statement: all results dropped.
					if call, ok := n.X.(*ast.CallExpr); ok {
						if name := wireCallDroppingError(info, call); name != "" {
							pass.Reportf(call.Pos(), "error from %s is discarded; handle it or suppress with //lint:ignore wireerr <reason>", name)
						}
					}
				case *ast.AssignStmt:
					checkAssignDiscard(pass, info, n)
				case *ast.GoStmt:
					if name := wireCallDroppingError(info, n.Call); name != "" {
						pass.Reportf(n.Call.Pos(), "error from %s is discarded by go statement; handle it in the goroutine", name)
					}
				case *ast.DeferStmt:
					if name := wireCallDroppingError(info, n.Call); name != "" {
						pass.Reportf(n.Call.Pos(), "error from %s is discarded by defer; wrap it in a closure that checks the error", name)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkAssignDiscard flags `_ = w.Write(b)` and `_, _ = x.Read(b)`
// forms where the error result lands in a blank identifier.
func checkAssignDiscard(pass *Pass, info *types.Info, as *ast.AssignStmt) {
	// Only the single-call form (n LHS, 1 RHS call) places results
	// positionally; handle it plus the 1:1 form.
	if len(as.Rhs) == 1 && len(as.Lhs) >= 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		name, errIdx := wireCallErrorResult(info, call)
		if name == "" {
			return
		}
		var errLHS ast.Expr
		if len(as.Lhs) == 1 && errIdx >= 0 {
			// single-value context: only valid if call has 1 result
			errLHS = as.Lhs[0]
		} else if errIdx < len(as.Lhs) {
			errLHS = as.Lhs[errIdx]
		}
		if id, ok := errLHS.(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(), "error from %s is assigned to _; handle it or suppress with //lint:ignore wireerr <reason>", name)
		}
		return
	}
	// n:n form: check each pair.
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			name, errIdx := wireCallErrorResult(info, call)
			if name == "" || errIdx != 0 {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(call.Pos(), "error from %s is assigned to _; handle it or suppress with //lint:ignore wireerr <reason>", name)
			}
		}
	}
}

// wireCallDroppingError reports a wire-verb call that returns an error
// among its results (all of which the caller is dropping).
func wireCallDroppingError(info *types.Info, call *ast.CallExpr) string {
	name, errIdx := wireCallErrorResult(info, call)
	if name == "" || errIdx < 0 {
		return ""
	}
	return name
}

// wireCallErrorResult identifies a call to a wire-verb function and the
// index of its error result, or ("", -1).
func wireCallErrorResult(info *types.Info, call *ast.CallExpr) (string, int) {
	name := calleeName(call)
	if name == "" || !hasWireVerb(name) {
		return "", -1
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return "", -1
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return name, i
		}
	}
	return "", -1
}

func hasWireVerb(name string) bool {
	lower := strings.ToLower(name)
	for _, v := range wireVerbs {
		if strings.Contains(lower, v) {
			return true
		}
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}
