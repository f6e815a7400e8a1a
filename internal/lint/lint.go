// Package lint is a small, dependency-free static-analysis framework plus
// the suite of domain-aware analyzers that enforce this repository's
// correctness invariants: ε-tolerant float comparisons in geometry code,
// deterministic randomness in solver paths, no wall-clock reads inside the
// deterministic pipeline, context propagation, no silently dropped errors,
// no degree/radian confusion around trig calls, and — through the
// interprocedural call-graph, effect-summary and taint engines — effect-
// clean //hipo:hotpath roots, a global lock order, and order-deterministic
// bit-identity sinks.
//
// Every check is one Analyzer whose Run sees the whole loaded Program.
// Checks that only need one package at a time are written against a Pass
// and adapted with perPackage. Run applies a set of analyzers, validates
// the //lint:ignore and //hipo: directives of every package, filters
// suppressed findings, and sorts the survivors.
//
// The Pass and Diagnostic shapes deliberately mirror
// golang.org/x/tools/go/analysis so the per-package checks could be ported
// to the upstream framework; everything here is built on the standard
// library only (go/ast, go/types, and export data produced by
// `go list -export`).
//
// Diagnostics are suppressed with a sibling comment:
//
//	//lint:ignore <analyzer> <reason>
//
// placed either on the flagged line or on the line immediately above it.
// The reason is mandatory; an ignore directive without one is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check over a loaded Program.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description: what is flagged and why the
	// invariant matters to the placement pipeline.
	Doc string
	// Run inspects the program and reports findings through report. The
	// package-level Run stamps each finding with Name.
	Run func(prog *Program, report func(Diagnostic)) error
}

// Pass carries one package's parsed and type-checked representation to a
// per-package check, along with the diagnostic sink.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Package is the full loaded package, giving checks access to parsed
	// //hipo: annotations.
	Package *Package

	report func(Diagnostic)
}

// perPackage adapts a single-package check to Analyzer.Run: check sees a
// Pass for every program package whose import path applies accepts (nil
// applies: every package).
func perPackage(applies func(importPath string) bool, check func(*Pass) error) func(*Program, func(Diagnostic)) error {
	return func(prog *Program, report func(Diagnostic)) error {
		for _, pkg := range prog.Packages {
			if applies != nil && !applies(pkg.ImportPath) {
				continue
			}
			pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Package: pkg, report: report}
			if err := check(pass); err != nil {
				return fmt.Errorf("%s: %w", pkg.ImportPath, err)
			}
		}
		return nil
	}
}

// Diagnostic is one finding, located by Position for stable sorting and
// printing. Fixes, when present, are machine-applicable resolutions
// applied by `hipolint -fix`.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fixes    []SuggestedFix
	// Related locates the supporting evidence of interprocedural findings
	// (call-chain steps, effect origins); rendered as SARIF
	// relatedLocations.
	Related []RelatedPos
}

// RelatedPos is one supporting location of a diagnostic.
type RelatedPos struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Analyzers returns the full suite in stable order: the per-package
// checks, then the whole-program ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatCmpAnalyzer,
		DetRandAnalyzer,
		WallClockAnalyzer,
		CtxFlowAnalyzer,
		ErrDropAnalyzer,
		AngleSafeAnalyzer,
		MutexGuardAnalyzer,
		NaNFlowAnalyzer,
		GoroLeakAnalyzer,
		HotPathAnalyzer,
		LockOrderAnalyzer,
		CtxPropAnalyzer,
		DetOrderAnalyzer,
		FPAssocAnalyzer,
		SharedWriteAnalyzer,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies each analyzer to prog, filters findings suppressed by
// //lint:ignore directives, and returns the survivors sorted by position.
// Malformed //lint:ignore and //hipo: directives of every package are
// appended as unsuppressible diagnostics of the pseudo-analyzer
// "lintdirective", whichever analyzers run.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		report := func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		if err := a.Run(prog, report); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	ign := make(ignoreSet)
	var bad []Diagnostic
	for _, pkg := range prog.Packages {
		bad = append(bad, collectIgnores(ign, pkg.Fset, pkg.Files)...)
		bad = append(bad, pkg.Annotations().Bad...)
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ign.suppressed(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	SortDiagnostics(kept)
	return kept, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer, and
// finally message.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// pathHasPrefix reports whether path is pkg or lies under the pkg/ subtree.
func pathHasPrefix(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

// isCommandPackage reports whether the import path belongs to a cmd or
// examples tree, where operational code (flag parsing, wall-clock, root
// contexts) is expected.
func isCommandPackage(path string) bool {
	return strings.Contains(path, "/cmd/") || pathHasPrefix(path, "hipo/cmd") ||
		strings.Contains(path, "/examples/") || pathHasPrefix(path, "hipo/examples")
}
