package lint

import (
	"go/ast"
	"strings"
)

// radianFuncs are the math functions whose argument is an angle in
// radians. Inverse trig is absent: its *result* is the angle.
var radianFuncs = map[string]bool{
	"Sin": true, "Cos": true, "Tan": true, "Sincos": true,
}

// AngleSafeAnalyzer heuristically flags degree/radian confusion: a trig
// call whose angle argument mentions a degree-named identifier without any
// visible conversion. All angular quantities in the pipeline (shadow
// intervals, sector orientations, hole rays) are radians; a stray degree
// value distorts coverage silently rather than crashing.
var AngleSafeAnalyzer = &Analyzer{
	Name: "anglesafe",
	Doc: "flags math.Sin/Cos/Tan/Sincos calls whose argument is built from a " +
		"degree-named identifier (deg, degrees, angleDeg, ...) with no visible " +
		"radian conversion (* math.Pi / 180 or a *rad*-named helper)",
	Run: perPackage(nil, runAngleSafe),
}

func runAngleSafe(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || selectorPackage(pass, sel) != "math" || !radianFuncs[sel.Sel.Name] {
				return true
			}
			arg := call.Args[0]
			if mentionsDegrees(arg) && !hasRadianConversion(pass, arg) {
				pass.Reportf(arg.Pos(), "argument to math.%s mentions a degree-named identifier with no radian conversion; trig functions take radians", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

// mentionsDegrees reports whether the expression references an identifier
// or selector field whose name suggests degrees.
func mentionsDegrees(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && isDegreeName(id.Name) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// isDegreeName matches deg, degs, degrees, angleDeg, DegNorth, thetaDegrees...
// while rejecting identifiers where "deg" is an accident of spelling
// (degenerate, degree-of-freedom abbreviations like dof are unaffected).
func isDegreeName(name string) bool {
	lower := strings.ToLower(name)
	if strings.Contains(lower, "degen") {
		return false
	}
	if !strings.Contains(lower, "deg") {
		return false
	}
	// "deg" must start the name or a camel/snake word boundary.
	for i := 0; i+3 <= len(lower); i++ {
		if lower[i:i+3] != "deg" {
			continue
		}
		if i == 0 || name[i] == 'D' || name[i-1] == '_' {
			return true
		}
	}
	return false
}

// hasRadianConversion reports whether the expression visibly converts to
// radians: multiplies/divides involving math.Pi or the literal 180, or
// passes through a helper whose name mentions rad.
func hasRadianConversion(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if selectorPackage(pass, n) == "math" && n.Sel.Name == "Pi" {
				found = true
			}
		case *ast.BasicLit:
			if n.Value == "180" || n.Value == "180.0" {
				found = true
			}
		case *ast.CallExpr:
			if name := calleeName(n); strings.Contains(strings.ToLower(name), "rad") {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeName extracts the bare function/method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
