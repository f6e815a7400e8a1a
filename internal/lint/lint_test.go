package lint_test

import (
	"go/importer"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"hipo/internal/lint"
	"hipo/internal/lint/linttest"
)

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, lint.FloatCmpAnalyzer, "testdata/floatcmp", "hipo/internal/geom")
}

func TestFloatCmpExemptPackage(t *testing.T) {
	// The SVG renderer is not a geometry/solver package; the same sources
	// must produce no findings there.
	linttest.RunExpectClean(t, lint.FloatCmpAnalyzer, "testdata/floatcmp", "hipo/internal/svg")
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, lint.DetRandAnalyzer, "testdata/detrand", "hipo/internal/submodular")
}

func TestWallClock(t *testing.T) {
	linttest.Run(t, lint.WallClockAnalyzer, "testdata/wallclock", "hipo/internal/power")
}

func TestWallClockExemptInCommands(t *testing.T) {
	// Only cmd/examples trees are exempt by path; pipeline packages opt out
	// with the annotation instead.
	linttest.RunExpectClean(t, lint.WallClockAnalyzer, "testdata/wallclock", "hipo/cmd/hiposerve")
}

func TestWallClockAllowAnnotation(t *testing.T) {
	// Identical clock reads, but the package declares
	// //hipo:allow-wallclock with a reason: no findings, regardless of the
	// import path.
	for _, path := range []string{
		"hipo/internal/jobs",
		"hipo/internal/power",
	} {
		linttest.RunExpectClean(t, lint.WallClockAnalyzer, "testdata/wallclockallow", path)
	}
}

func TestHipoDirectiveValidation(t *testing.T) {
	// Malformed //hipo: directives surface as lintdirective diagnostics no
	// matter which analyzer runs — a per-package one or a whole-program
	// one; each broken directive in the fixture must produce exactly one.
	pkg := loadTestPackage(t, "hipo/cmd/hiposerve", "testdata/hipobad")
	prog := lint.BuildProgram([]*lint.Package{pkg})
	wants := []string{
		"//hipo:allow-wallclock needs a reason",
		"//hipo:pure needs a reason",
		"//hipo:hotpath deny list",
		"unknown //hipo: directive frobnicate",
		"//hipo:hotpath must appear in a function's doc comment",
		"//hipo:order-invariant needs a reason",
		"//hipo:order-invariant must appear in a function's doc comment",
	}
	for _, a := range []*lint.Analyzer{lint.WallClockAnalyzer, lint.HotPathAnalyzer} {
		diags, err := lint.Run(prog, []*lint.Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != len(wants) {
			t.Errorf("%s: got %d diagnostics, want %d:\n%v", a.Name, len(diags), len(wants), diags)
		}
		for _, w := range wants {
			found := false
			for _, d := range diags {
				if d.Analyzer == "lintdirective" && strings.Contains(d.Message, w) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no lintdirective diagnostic containing %q", a.Name, w)
			}
		}
	}
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, lint.CtxFlowAnalyzer, "testdata/ctxflow", "hipo/internal/core")
}

func TestCtxFlowExemptInCommands(t *testing.T) {
	linttest.RunExpectClean(t, lint.CtxFlowAnalyzer, "testdata/ctxflow", "hipo/cmd/hiposerve")
}

func TestErrDrop(t *testing.T) {
	linttest.Run(t, lint.ErrDropAnalyzer, "testdata/errdrop", "hipo/internal/redeploy")
}

func TestAngleSafe(t *testing.T) {
	linttest.Run(t, lint.AngleSafeAnalyzer, "testdata/anglesafe", "hipo/internal/visibility")
}

func TestMutexGuard(t *testing.T) {
	linttest.Run(t, lint.MutexGuardAnalyzer, "testdata/mutexguard", "hipo/internal/jobs")
}

func TestNaNFlow(t *testing.T) {
	linttest.Run(t, lint.NaNFlowAnalyzer, "testdata/nanflow", "hipo/internal/geom")
}

func TestNaNFlowExemptPackage(t *testing.T) {
	// The SVG renderer produces pictures, not placements; NaN there is
	// cosmetic and the analyzer does not apply.
	linttest.RunExpectClean(t, lint.NaNFlowAnalyzer, "testdata/nanflow", "hipo/internal/svg")
}

func TestGoroLeak(t *testing.T) {
	linttest.Run(t, lint.GoroLeakAnalyzer, "testdata/goroleak", "hipo/internal/jobs")
}

// TestIgnoreStatementExtent checks that a //lint:ignore directive above a
// multi-line statement suppresses diagnostics on its continuation lines,
// while a directive above a compound statement stops at the opening brace.
func TestIgnoreStatementExtent(t *testing.T) {
	linttest.Run(t, lint.FloatCmpAnalyzer, "testdata/ignoreextent", "hipo/internal/geom")
}

// TestMalformedIgnoreDirectives checks that a directive missing its reason
// (or naming an unknown analyzer) suppresses nothing and is itself
// reported as a lintdirective diagnostic.
func TestMalformedIgnoreDirectives(t *testing.T) {
	pkg := loadTestdata(t, "testdata/ignorebad", "hipo/internal/geom")
	diags, err := lint.Run(lint.BuildProgram([]*lint.Package{pkg}), []*lint.Analyzer{lint.FloatCmpAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	var directive, floatcmp int
	for _, d := range diags {
		switch d.Analyzer {
		case "lintdirective":
			directive++
		case "floatcmp":
			floatcmp++
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
	if directive != 2 {
		t.Errorf("got %d lintdirective diagnostics, want 2: %v", directive, diags)
	}
	if floatcmp != 2 {
		t.Errorf("got %d floatcmp diagnostics (malformed directives must not suppress), want 2: %v", floatcmp, diags)
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, a := range lint.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	for _, want := range []string{
		"floatcmp", "detrand", "wallclock", "ctxflow", "errdrop", "anglesafe", "mutexguard", "nanflow", "goroleak",
		"hotpath", "lockorder", "ctxprop", "detorder", "fpassoc", "sharedwrite",
	} {
		if !names[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
	if len(names) != 15 {
		t.Errorf("registry lists %d analyzers, want 15", len(names))
	}
	if lint.ByName("nosuchcheck") != nil {
		t.Error("ByName on unknown name should be nil")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "floatcmp", Message: "msg"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "f.go", 3, 7
	if got := d.String(); !strings.Contains(got, "f.go:3:7: floatcmp: msg") {
		t.Errorf("String() = %q", got)
	}
}

func loadTestdata(t *testing.T, dir, importPath string) *lint.Package {
	t.Helper()
	exp, err := lint.LoadExportData(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading export data: %v", err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exp.Lookup)
	pkg, err := lint.CheckDir(fset, imp, importPath, dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}
