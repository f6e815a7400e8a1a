package lint_test

import (
	"bytes"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipo/internal/lint"
)

// TestFixCleansDirtyTree runs nanflow over a copy of its fixture tree,
// applies the suggested clamp fixes, and checks that (a) every rewritten
// file is gofmt-clean and (b) a re-run reports no inverse-trig findings.
func TestFixCleansDirtyTree(t *testing.T) {
	dir := t.TempDir()
	ents, err := os.ReadDir("testdata/nanflow")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		src, err := os.ReadFile(filepath.Join("testdata/nanflow", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	run := func() []lint.Diagnostic {
		pkg := loadTestdata(t, dir, "hipo/internal/geom")
		diags, err := lint.Run(lint.BuildProgram([]*lint.Package{pkg}), []*lint.Analyzer{lint.NaNFlowAnalyzer})
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	diags := run()
	var withFix int
	for _, d := range diags {
		if len(d.Fixes) > 0 {
			withFix++
		}
	}
	if withFix == 0 {
		t.Fatal("no diagnostics carry suggested fixes; expected clamp fixes for Acos/Asin")
	}

	updated, dropped, err := lint.ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 {
		t.Errorf("dropped fixes on a conflict-free tree: %v", dropped)
	}
	if len(updated) == 0 {
		t.Fatal("ApplyFixes rewrote nothing")
	}
	for file, src := range updated {
		want, err := format.Source(src)
		if err != nil {
			t.Fatalf("fixed %s does not parse: %v", file, err)
		}
		if !bytes.Equal(src, want) {
			t.Errorf("fixed %s is not gofmt-clean", file)
		}
		if err := os.WriteFile(file, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, d := range run() {
		if strings.Contains(d.Message, "not provably in") {
			t.Errorf("inverse-trig finding survived -fix: %s", d)
		}
	}
}

// TestApplyFixesDropsOverlaps: when two fixes edit overlapping ranges, the
// first reported wins and the second is returned in dropped.
func TestApplyFixesDropsOverlaps(t *testing.T) {
	file := filepath.Join(t.TempDir(), "a.go")
	src := "package p\n\nvar x = 1 + 2\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(msg string, start, end int, text string) lint.Diagnostic {
		return lint.Diagnostic{
			Analyzer: "test",
			Message:  msg,
			Fixes: []lint.SuggestedFix{{
				Message: msg,
				Edits:   []lint.TextEdit{{File: file, Start: start, End: end, NewText: text}},
			}},
		}
	}
	whole := mk("replace sum", strings.Index(src, "1 + 2"), strings.Index(src, "1 + 2")+5, "3")
	inner := mk("replace lhs", strings.Index(src, "1 + 2"), strings.Index(src, "1 + 2")+1, "9")

	updated, dropped, err := lint.ApplyFixes([]lint.Diagnostic{whole, inner})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(updated[file]); !strings.Contains(got, "var x = 3") {
		t.Errorf("updated = %q, want the whole-sum replacement applied", got)
	}
	if len(dropped) != 1 || dropped[0].Message != "replace lhs" {
		t.Errorf("dropped = %v, want the overlapping inner edit", dropped)
	}
}
