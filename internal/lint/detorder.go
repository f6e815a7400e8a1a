package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// DetOrderAnalyzer reports order-tainted values reaching an exported sink
// without an intervening canonicalization. Sinks are the surfaces the
// bit-identity test wall diffs byte-for-byte — Placement returns,
// ScenarioHash inputs, the JSON report writers, and the Prometheus text
// exposition — so a finding here is a statically proven path from map
// iteration / goroutine scheduling / select choice into an artifact that
// must be reproducible. Each finding carries the full source-to-sink chain
// as related locations, and key-only map ranges over sortable keys get a
// machine-applicable sorted-keys rewrite.
var DetOrderAnalyzer = &Analyzer{
	Name: "detorder",
	Doc: "flags order-nondeterministic values (map iteration, goroutine " +
		"completion, select choice) reaching exported sinks — Placement " +
		"returns, ScenarioHash inputs, report writers, Prometheus text — " +
		"without a canonicalizing sort; fix by sorting before emitting or " +
		"annotate the producer //hipo:order-invariant <reason>",
	Run: runDetOrder,
}

func runDetOrder(prog *Program, report func(Diagnostic)) error {
	eng := prog.Taint()
	for _, s := range eng.Sinks {
		if s.Taints == 0 || s.Suppressed != "" {
			continue
		}
		d := Diagnostic{
			Pos: s.Pos,
			Message: fmt.Sprintf("%s-tainted value reaches %s sink in %s without canonicalization; "+
				"sort before emitting or annotate the producer //hipo:order-invariant <reason>",
				s.Taints, s.Kind, s.Func.Key),
			Related: chainRelated(s.Taints, s.Chains),
		}
		if fix := sortKeysFix(s.Taints, s.Chains); fix != nil {
			d.Fixes = []SuggestedFix{*fix}
		}
		report(d)
	}
	return nil
}

// chainRelated renders each taint kind's sample chain, source first.
func chainRelated(taints TaintSet, chains [NumTaints]*TaintChain) []RelatedPos {
	var out []RelatedPos
	for _, t := range taints.Taints() {
		c := chains[t]
		if c == nil {
			continue
		}
		for i, step := range c.Steps {
			label := fmt.Sprintf("[%s %d/%d] %s", t, i+1, len(c.Steps), step.Note)
			out = append(out, RelatedPos{Pos: step.Pos, Message: label})
		}
	}
	return out
}

// sortKeysFix builds the sorted-keys rewrite for a map-order chain whose
// source is a key-only `for k := range m` over string/int/float64 keys.
// The rewrite is semantics-preserving — each key still visited exactly
// once — and only offered when the file already imports "sort" (TextEdits
// cannot add imports).
func sortKeysFix(taints TaintSet, chains [NumTaints]*TaintChain) *SuggestedFix {
	if !taints.Has(TaintMapOrder) {
		return nil
	}
	c := chains[TaintMapOrder]
	if c == nil || c.fixRange == nil || c.fixPkg == nil {
		return nil
	}
	rng, pkg := c.fixRange, c.fixPkg
	key, ok := rng.Key.(*ast.Ident)
	if !ok || rng.Value != nil || rng.Tok != token.DEFINE {
		return nil
	}
	mt, ok := pkg.Info.TypeOf(rng.X).Underlying().(*types.Map)
	if !ok {
		return nil
	}
	kb, ok := mt.Key().Underlying().(*types.Basic)
	if !ok {
		return nil
	}
	var sortFn, keyType string
	switch kb.Kind() {
	case types.String:
		sortFn, keyType = "sort.Strings", "string"
	case types.Int:
		sortFn, keyType = "sort.Ints", "int"
	case types.Float64:
		sortFn, keyType = "sort.Float64s", "float64"
	default:
		return nil
	}
	start := pkg.Fset.Position(rng.Key.Pos())
	end := pkg.Fset.Position(rng.X.End())
	if !fileImports(pkg, start.Filename, "sort") {
		return nil
	}
	mapText := types.ExprString(rng.X)
	newText := fmt.Sprintf(
		"_, %[1]s := range func() []%[2]s {\n"+
			"keys := make([]%[2]s, 0, len(%[3]s))\n"+
			"for k := range %[3]s {\nkeys = append(keys, k)\n}\n"+
			"%[4]s(keys)\nreturn keys\n}()",
		key.Name, keyType, mapText, sortFn)
	return &SuggestedFix{
		Message: "iterate the map in sorted key order",
		Edits: []TextEdit{{
			File:    start.Filename,
			Start:   start.Offset,
			End:     end.Offset,
			NewText: newText,
		}},
	}
}

// fileImports reports whether the named file of pkg imports path.
func fileImports(pkg *Package, filename, path string) bool {
	for _, f := range pkg.Files {
		if pkg.Fset.Position(f.Pos()).Filename != filename {
			continue
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"`+path+`"` {
				return true
			}
		}
	}
	return false
}
