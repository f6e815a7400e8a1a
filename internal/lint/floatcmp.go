package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// floatCmpPackages are the geometry and solver packages whose predicates
// feed the piecewise-constant power approximation (Lemma 4.1) and the
// hole/shadow discretization. Exact float equality there silently flips
// boundary classifications between runs and platforms, so comparisons must
// go through the ε-tolerance helpers (geom.Eps, Vec.Eq, interval
// endpoints with math.Abs(a-b) <= Eps).
var floatCmpPackages = []string{
	"hipo",
	"hipo/internal/baselines",
	"hipo/internal/cells",
	"hipo/internal/core",
	"hipo/internal/deploycost",
	"hipo/internal/discretize",
	"hipo/internal/fairness",
	"hipo/internal/field",
	"hipo/internal/geom",
	"hipo/internal/matching",
	"hipo/internal/model",
	"hipo/internal/oracle",
	"hipo/internal/pdcs",
	"hipo/internal/power",
	"hipo/internal/radial",
	"hipo/internal/redeploy",
	"hipo/internal/schedule",
	"hipo/internal/submodular",
	"hipo/internal/visibility",
	"hipo/internal/visindex",
}

// FloatCmpAnalyzer flags == and != between floating-point operands in the
// geometry/solver packages.
var FloatCmpAnalyzer = &Analyzer{
	Name: "floatcmp",
	Doc: "flags raw == or != on floating-point operands in geometry/solver " +
		"packages; boundary predicates must use the ε-tolerance helpers so the " +
		"piecewise-constant power approximation stays stable across runs",
	Run: perPackage(func(path string) bool { return slices.Contains(floatCmpPackages, path) }, runFloatCmp),
}

// isFloat reports whether t's underlying type is a floating-point scalar.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func runFloatCmp(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt, yt := pass.TypeOf(be.X), pass.TypeOf(be.Y)
			if xt == nil || yt == nil || !isFloat(xt) || !isFloat(yt) {
				return true
			}
			// Comparing two compile-time constants is exact by definition.
			if pass.Info.Types[be.X].Value != nil && pass.Info.Types[be.Y].Value != nil {
				return true
			}
			// x != x / x == x is the portable NaN probe; leave it alone.
			if sameIdent(be.X, be.Y) {
				return true
			}
			pass.Reportf(be.OpPos, "raw %s on floating-point operands; use the ε-tolerance helpers (geom.Eps) instead", be.Op)
			return true
		})
	}
	return nil
}

func sameIdent(x, y ast.Expr) bool {
	xi, ok1 := x.(*ast.Ident)
	yi, ok2 := y.(*ast.Ident)
	return ok1 && ok2 && xi.Name == yi.Name
}
