package lint

import "go/ast"

// wallClockFuncs are the time package functions that observe the wall
// clock. Duration arithmetic and timer construction are untouched.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// WallClockAnalyzer flags wall-clock reads inside deterministic pipeline
// packages. A package whose purpose is timing (the job manager, the solve
// tracer, serving metrics, the load harness) opts out with a package-level
// annotation carrying its justification:
//
//	//hipo:allow-wallclock span durations are the tracer's whole purpose
//
// so the exemption lives next to the code it excuses instead of in a list
// here. The same annotation masks wall-clock effects in the whole-program
// summaries (see callgraph.go), keeping instrumentation layers from
// poisoning //hipo:hotpath contracts. cmd and examples layers are exempt
// wholesale: operational code is expected to observe time.
var WallClockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc: "flags time.Now/time.Since/time.Until inside deterministic pipeline " +
		"packages; wall-clock reads there break run-to-run reproducibility — " +
		"a package whose purpose is timing opts out with " +
		"`//hipo:allow-wallclock <reason>`",
	Run: perPackage(func(path string) bool { return !isCommandPackage(path) }, runWallClock),
}

func runWallClock(pass *Pass) error {
	if pass.Package.Annotations().AllowWallclock != "" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if selectorPackage(pass, sel) == "time" && wallClockFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock inside a deterministic pipeline package; inject timing from the caller, or annotate the package `//hipo:allow-wallclock <reason>` if timing is its purpose", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
