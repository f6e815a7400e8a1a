package lint

import (
	"go/ast"
	"go/types"
)

// globalRandFuncs are the math/rand (and v2) top-level functions that draw
// from the shared, non-injectable global source. rand.New/NewSource/NewPCG
// and friends are deliberately absent: constructing an explicitly seeded
// source is exactly the blessed pattern.
var globalRandFuncs = map[string]bool{
	"ExpFloat64": true, "Float32": true, "Float64": true,
	"Int": true, "Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"IntN": true, "Intn": true, "N": true, "NormFloat64": true,
	"Perm": true, "Read": true, "Seed": true, "Shuffle": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"UintN": true,
}

// DetRandAnalyzer flags draws from the global math/rand source in non-test
// code. Placement results must be reproducible from (scenario, seed) alone
// — the property that makes cross-run comparisons of solver variants
// meaningful — so randomized code takes an injected, explicitly seeded
// *rand.Rand.
var DetRandAnalyzer = &Analyzer{
	Name: "detrand",
	Doc: "flags math/rand global top-level functions (rand.Intn, rand.Float64, " +
		"rand.Seed, ...) in non-test code; randomized solver code must accept an " +
		"injected, explicitly seeded *rand.Rand for reproducibility",
	Run: perPackage(nil, runDetRand),
}

func runDetRand(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg := selectorPackage(pass, sel)
			if pkg != "math/rand" && pkg != "math/rand/v2" {
				return true
			}
			if globalRandFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "rand.%s draws from the global source; inject a seeded *rand.Rand instead", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

// selectorPackage returns the import path of the package a selector
// qualifies into ("math/rand" for rand.Intn), or "" if sel is not a
// package-qualified reference.
func selectorPackage(pass *Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
