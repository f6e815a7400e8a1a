package lint_test

import (
	"go/importer"
	"go/token"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hipo/internal/lint"
)

var (
	expOnce sync.Once
	expData *lint.ExportData
	expErr  error
)

// testExportData builds (once) the export-data closure of the module for
// fixture loading in this package's tests.
func testExportData(t *testing.T) *lint.ExportData {
	t.Helper()
	expOnce.Do(func() {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			expErr = err
			return
		}
		root := filepath.Dir(strings.TrimSpace(string(out)))
		expData, expErr = lint.LoadExportData(root)
	})
	if expErr != nil {
		t.Fatalf("loading export data: %v", expErr)
	}
	return expData
}

// loadTestPackage type-checks a testdata directory under the given import
// path.
func loadTestPackage(t *testing.T, importPath, dir string) *lint.Package {
	t.Helper()
	exp := testExportData(t)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exp.Lookup)
	pkg, err := lint.CheckDir(fset, imp, importPath, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkg
}

var (
	effProgOnce sync.Once
	effProg     *lint.Program
)

// effectsProgram loads testdata/effects once and builds its call graph.
func effectsProgram(t *testing.T) *lint.Program {
	t.Helper()
	effProgOnce.Do(func() {
		pkg := loadTestPackage(t, "hipo/internal/fx", filepath.Join("testdata", "effects"))
		effProg = lint.BuildProgram([]*lint.Package{pkg})
	})
	if effProg == nil {
		t.Fatal("effects fixture failed to load in an earlier test")
	}
	return effProg
}

// parseEffects turns "wallclock,alloc" into an EffectSet, "" into EffNone.
func parseEffects(t *testing.T, list string) lint.EffectSet {
	t.Helper()
	if list == "" {
		return lint.EffNone
	}
	s, err := lint.ParseEffectSet(list)
	if err != nil {
		t.Fatalf("bad effect list %q: %v", list, err)
	}
	return s
}

// TestEffectSummaries is the table-driven contract of the summary engine:
// recursion closes over SCCs, interface dispatch widens to all
// implementations, tracked func values resolve, untracked ones fall to
// unknown, ret-nodes carry closure effects to their call sites, and
// caller-folded arguments charge the caller, not the plumbing.
func TestEffectSummaries(t *testing.T) {
	prog := effectsProgram(t)
	cases := []struct {
		fn string
		// want must be a subset of the summary; wantAbsent must not
		// intersect it. Split so incidental effects (a helper growing an
		// alloc) don't churn the table.
		want       string
		wantAbsent string
	}{
		{fn: "hipo/internal/fx.MutualA", want: "wallclock", wantAbsent: "rand,unknown"},
		{fn: "hipo/internal/fx.MutualB", want: "wallclock", wantAbsent: "rand,unknown"},
		{fn: "hipo/internal/fx.SelfRec", want: "alloc", wantAbsent: "wallclock,unknown"},
		{fn: "hipo/internal/fx.(Circle).Area", want: "", wantAbsent: "rand,unknown"},
		{fn: "hipo/internal/fx.(Noisy).Area", want: "rand", wantAbsent: "unknown"},
		{fn: "hipo/internal/fx.ViaInterface", want: "rand", wantAbsent: "unknown"},
		{fn: "hipo/internal/fx.TrackedValue", want: "alloc", wantAbsent: "unknown"},
		{fn: "hipo/internal/fx.UntrackedValue", want: "unknown", wantAbsent: "wallclock,rand"},
		// Creating a closure is effect-free; the effect lives in the
		// closure's own node and reaches whoever invokes the result.
		{fn: "hipo/internal/fx.clockClosure", want: "", wantAbsent: "wallclock,unknown"},
		{fn: "hipo/internal/fx.clockClosure$1", want: "wallclock", wantAbsent: "unknown"},
		{fn: "hipo/internal/fx.ViaReturnedClosure", want: "wallclock", wantAbsent: "unknown"},
		{fn: "hipo/internal/fx.Runner", want: "", wantAbsent: "rand,unknown"},
		{fn: "hipo/internal/fx.CallsRunner", want: "rand", wantAbsent: "unknown"},
		{fn: "hipo/internal/fx.(Locker).Locked", want: "lock,block", wantAbsent: "unknown"},
		{fn: "hipo/internal/fx.Spawner", want: "go,block", wantAbsent: "unknown"},
	}
	for _, tc := range cases {
		node := prog.Funcs[tc.fn]
		if node == nil {
			t.Errorf("%s: no call-graph node (keys drifted?)", tc.fn)
			continue
		}
		want := parseEffects(t, tc.want)
		absent := parseEffects(t, tc.wantAbsent)
		if got := node.Summary.Intersect(want); got != want {
			t.Errorf("%s: summary %v is missing wanted effects %v", tc.fn, node.Summary, want)
		}
		if got := node.Summary.Intersect(absent); got != lint.EffNone {
			t.Errorf("%s: summary %v carries forbidden effects %v", tc.fn, node.Summary, got)
		}
	}
}

// TestEffectAcquisitions: the transitive acquisition set drives lockorder;
// a method locking a struct-field mutex must expose the canonical key.
func TestEffectAcquisitions(t *testing.T) {
	prog := effectsProgram(t)
	node := prog.Funcs["hipo/internal/fx.(Locker).Locked"]
	if node == nil {
		t.Fatal("no node for (Locker).Locked")
	}
	if _, ok := node.AcquiresAll["hipo/internal/fx.Locker.mu"]; !ok {
		keys := make([]string, 0, len(node.AcquiresAll))
		for k := range node.AcquiresAll {
			keys = append(keys, k)
		}
		t.Errorf("AcquiresAll = %v, want key hipo/internal/fx.Locker.mu", keys)
	}
}

// TestEffectReportOnFixture: BuildReport sees no //hipo:hotpath roots in
// the fixture and still emits a schema-tagged, non-nil roots array.
func TestEffectReportOnFixture(t *testing.T) {
	prog := effectsProgram(t)
	rep, err := lint.BuildReport(prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != lint.ReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, lint.ReportSchema)
	}
	if rep.Roots == nil {
		t.Error("roots is nil; the report must serialize as an array")
	}
	if len(rep.Roots) != 0 {
		t.Errorf("fixture has no hotpath roots, report lists %d", len(rep.Roots))
	}
}

// TestUnknownSitesCarryReasons: the unknown effect must point at the
// unresolvable call with a human-readable reason.
func TestUnknownSitesCarryReasons(t *testing.T) {
	prog := effectsProgram(t)
	node := prog.Funcs["hipo/internal/fx.UntrackedValue"]
	if node == nil {
		t.Fatal("no node for UntrackedValue")
	}
	if len(node.UnknownSites) == 0 {
		t.Fatal("UntrackedValue has no unknown sites")
	}
	for _, s := range node.UnknownSites {
		if s.Reason == "" {
			t.Error("unknown site without a reason")
		}
		if s.Pos.Line == 0 {
			t.Error("unknown site without a position")
		}
	}
}
