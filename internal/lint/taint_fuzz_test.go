package lint_test

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"hipo/internal/lint"
)

// FuzzTaintPropagation hammers the taint engine with arbitrary Go sources
// and asserts its structural invariants: it never panics, the three
// determinism analyzers run without error, every recorded chain is
// non-empty and bounded, and every analyzer finding lands on a real
// position with a message. Sources that fail to parse or type-check are
// out of scope (the engine only ever sees loaded packages).
func FuzzTaintPropagation(f *testing.F) {
	for _, src := range []string{
		"package a\n\ntype Placement struct{ IDs []int }\n\nfunc Bad(m map[string]int) Placement {\n\tvar ids []int\n\tfor k := range m {\n\t\tids = append(ids, m[k])\n\t}\n\treturn Placement{IDs: ids}\n}\n",
		"package a\n\nfunc Sum(m map[string]float64) float64 {\n\tsum := 0.0\n\tfor _, v := range m {\n\t\tsum += v\n\t}\n\treturn sum\n}\n",
		"package a\n\nimport \"sort\"\n\nfunc Keys(m map[string]int) []string {\n\tkeys := make([]string, 0, len(m))\n\tfor k := range m {\n\t\tkeys = append(keys, k)\n\t}\n\tsort.Strings(keys)\n\treturn keys\n}\n",
		"package a\n\nimport \"sync\"\n\ntype S struct {\n\tmu sync.Mutex\n\tn  int\n}\n\n// bump must be called with s.mu held.\nfunc (s *S) bump() { s.n++ }\n\nfunc (s *S) Go() {\n\tgo func() { s.bump() }()\n}\n",
		"package a\n\nfunc FanIn(xs []string) string {\n\tout := make(chan string, len(xs))\n\tfor _, x := range xs {\n\t\tgo func(v string) { out <- v }(x)\n\t}\n\tvar s string\n\tfor v := range out {\n\t\ts += v\n\t}\n\treturn s\n}\n",
		"package a\n\nfunc Rec(m map[int]int, d int) []int {\n\tif d == 0 {\n\t\tvar o []int\n\t\tfor k := range m {\n\t\t\to = append(o, k)\n\t\t}\n\t\treturn o\n\t}\n\treturn Rec(m, d-1)\n}\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		exp := testExportData(t)
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "gc", exp.Lookup)
		pkg, err := lint.CheckDir(fset, imp, "hipo/internal/servemetrics", dir)
		if err != nil {
			return // not a valid package: out of the engine's scope
		}
		prog := lint.BuildProgram([]*lint.Package{pkg})
		eng := prog.Taint()
		checkChains := func(kind string, pos token.Position, chains [lint.NumTaints]*lint.TaintChain) {
			for tn := lint.Taint(0); tn < lint.NumTaints; tn++ {
				c := chains[tn]
				if c == nil {
					continue
				}
				if len(c.Steps) == 0 {
					t.Errorf("%s at %s: recorded %v chain is empty", kind, pos, tn)
				}
				if len(c.Steps) > 8 {
					t.Errorf("%s at %s: %v chain has %d steps, want bounded", kind, pos, tn, len(c.Steps))
				}
			}
		}
		for _, s := range eng.Sinks {
			if s.Pos.Line == 0 || s.Func == nil {
				t.Errorf("sink %+v lacks a position or owning function", s)
			}
			checkChains("sink", s.Pos, s.Chains)
		}
		for _, fa := range eng.FloatAccums {
			if fa.Pos.Line == 0 || fa.Func == nil {
				t.Errorf("float accum %+v lacks a position or owning function", fa)
			}
			checkChains("float accum", fa.Pos, fa.Chains)
		}
		diags, err := lint.Run(prog, []*lint.Analyzer{
			lint.DetOrderAnalyzer, lint.FPAssocAnalyzer, lint.SharedWriteAnalyzer,
		})
		if err != nil {
			t.Fatalf("analyzers errored on type-correct input: %v", err)
		}
		for _, d := range diags {
			if d.Message == "" || d.Pos.Line == 0 {
				t.Errorf("malformed diagnostic: %+v", d)
			}
		}
	})
}
