package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Floatcmp flags == and != between floating-point operands in the
// simpeer and experiment packages. The reproduction's stall counts and
// startup-delay aggregates come out of floating-point accumulation;
// exact equality on such values silently misclassifies results that
// differ by one ULP. Compare against an epsilon, or restructure so the
// comparison is on integers (counts, durations in time.Duration).
// Comparisons against an exact floating-point zero literal are still
// flagged: a sum that "should" be zero rarely is.
var Floatcmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flag ==/!= between floating-point operands in simpeer and experiment packages",
	Match: matchPaths(
		"p2psplice/internal/simpeer",
		"p2psplice/internal/experiment",
	),
	Run: runFloatcmp,
}

func runFloatcmp(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if isFloat(pkg.Info.TypeOf(be.X)) || isFloat(pkg.Info.TypeOf(be.Y)) {
					pass.Reportf(be.OpPos, "floating-point %s comparison; use an epsilon or integer representation", be.Op)
				}
				return true
			})
		}
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
