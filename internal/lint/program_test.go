package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"hipo/internal/lint"
	"hipo/internal/lint/linttest"
)

func TestHotPath(t *testing.T) {
	linttest.Run(t, lint.HotPathAnalyzer, "testdata/hotpath", "hipo/internal/pdcs")
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, lint.LockOrderAnalyzer, "testdata/lockorder", "hipo/internal/jobs")
}

func TestLockOrderOutOfScope(t *testing.T) {
	// The same sources outside the serving stack participate in no global
	// lock order; nothing is reported.
	linttest.RunExpectClean(t, lint.LockOrderAnalyzer, "testdata/lockorder", "hipo/internal/geom")
}

func TestCtxProp(t *testing.T) {
	linttest.Run(t, lint.CtxPropAnalyzer, "testdata/ctxprop", "hipo/internal/core")
}

func TestCtxPropExemptInCommands(t *testing.T) {
	linttest.RunExpectClean(t, lint.CtxPropAnalyzer, "testdata/ctxprop", "hipo/cmd/hiposerve")
}

// TestCtxPropSuggestedFix: a severed context.Background() toward a blocking
// callee carries a machine fix replacing the argument with the in-scope
// context name.
func TestCtxPropSuggestedFix(t *testing.T) {
	pkg := loadTestPackage(t, "hipo/internal/core", filepath.Join("testdata", "ctxprop"))
	prog := lint.BuildProgram([]*lint.Package{pkg})
	diags, err := lint.Run(prog, []*lint.Analyzer{lint.CtxPropAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	var withFix int
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			continue
		}
		withFix++
		edit := d.Fixes[0].Edits[0]
		if edit.NewText != "ctx" {
			t.Errorf("fix replaces with %q, want ctx", edit.NewText)
		}
		if !strings.HasSuffix(edit.File, "a.go") {
			t.Errorf("fix targets %q, want the fixture file", edit.File)
		}
		if edit.End <= edit.Start {
			t.Errorf("fix range [%d,%d) is empty", edit.Start, edit.End)
		}
	}
	if withFix == 0 {
		t.Error("no ctxprop diagnostic carried a suggested fix")
	}
}

func TestDetOrder(t *testing.T) {
	linttest.Run(t, lint.DetOrderAnalyzer, "testdata/detorder", "hipo/internal/servemetrics")
}

func TestFPAssoc(t *testing.T) {
	linttest.Run(t, lint.FPAssocAnalyzer, "testdata/fpassoc", "hipo/internal/expt")
}

func TestSharedWrite(t *testing.T) {
	linttest.Run(t, lint.SharedWriteAnalyzer, "testdata/sharedwrite", "hipo/internal/jobs")
}

func TestSharedWriteCleanWithoutGoroutines(t *testing.T) {
	// The detorder fixture spawns nothing, so the goroutine subgraph is
	// empty and sharedwrite has nothing to say.
	linttest.RunExpectClean(t, lint.SharedWriteAnalyzer, "testdata/detorder", "hipo/internal/servemetrics")
}

func TestFPAssocCleanOnDetOrderFixture(t *testing.T) {
	// The detorder fixture has string and slice accumulations but no float
	// reductions; fpassoc must stay silent on it.
	linttest.RunExpectClean(t, lint.FPAssocAnalyzer, "testdata/detorder", "hipo/internal/servemetrics")
}

// TestDetOrderSuggestedFix: a key-only map range over string keys in a file
// that imports "sort" gets the machine-applicable sorted-keys rewrite.
func TestDetOrderSuggestedFix(t *testing.T) {
	pkg := loadTestPackage(t, "hipo/internal/servemetrics", filepath.Join("testdata", "detorder"))
	prog := lint.BuildProgram([]*lint.Package{pkg})
	diags, err := lint.Run(prog, []*lint.Analyzer{lint.DetOrderAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	var withFix int
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			continue
		}
		withFix++
		edit := d.Fixes[0].Edits[0]
		if !strings.Contains(edit.NewText, "sort.Strings") {
			t.Errorf("fix rewrites to %q, want a sort.Strings canonicalization", edit.NewText)
		}
		if edit.End <= edit.Start {
			t.Errorf("fix range [%d,%d) is empty", edit.Start, edit.End)
		}
	}
	if withFix == 0 {
		t.Error("no detorder diagnostic carried the sorted-keys fix")
	}
}
