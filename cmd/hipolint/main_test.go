package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hipo/internal/lint"
)

// moduleRoot locates the repository root so the test is independent of the
// package directory it runs from.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// chdirModuleRoot moves the test into the repository root for the duration
// of the test, so package patterns like ./... resolve the whole module.
func chdirModuleRoot(t *testing.T) {
	t.Helper()
	chdir(t, moduleRoot(t))
}

// chdir moves the test into dir for the duration of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// hotRoots are the //hipo:hotpath roots the pipeline must keep annotated,
// effect-clean and order-clean; the CI drift guard requires the same set.
var hotRoots = []string{
	"hipo/internal/pdcs.Extract",
	"hipo/internal/pdcs.ExtractAll",
	"hipo/internal/pdcs.pipeline",
	"hipo/internal/discretize.CandidatePositions",
	"hipo/internal/submodular.GreedyLazy",
	"hipo/internal/submodular.GreedyLazyWarm",
	"hipo/internal/visindex.Ensure",
	"hipo/internal/visindex.(Index).NewViewpoint",
}

// TestSuiteCleanOnRepository is the acceptance gate: the full analyzer
// suite must produce zero diagnostics on the repository's own tree, and
// the report from the same run must pass every assertion the CI drift
// guard makes.
func TestSuiteCleanOnRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module; skipped in -short mode")
	}
	chdirModuleRoot(t)
	path := filepath.Join(t.TempDir(), "hipolint.json")
	var out, errw bytes.Buffer
	if code := run([]string{"-report", path, "./..."}, &out, &errw); code != 0 {
		t.Errorf("hipolint ./... exited %d; diagnostics:\n%s%s", code, out.String(), errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep lint.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != lint.ReportSchema {
		t.Errorf("report schema = %q, want %q", rep.Schema, lint.ReportSchema)
	}
	roots := map[string]bool{}
	for _, r := range rep.Roots {
		roots[r.Func] = true
		if !r.Clean {
			t.Errorf("hot-path root %s is not effect-clean: %v", r.Func, r.Effects)
		}
		if !r.OrderClean {
			t.Errorf("hot-path root %s has order-tainted returns: %v", r.Func, r.OrderTaints)
		}
	}
	for _, want := range hotRoots {
		if !roots[want] {
			t.Errorf("report is missing hot-path root %s", want)
		}
	}
	clean := 0
	for _, s := range rep.Sinks {
		if !s.Clean {
			t.Errorf("report has a dirty %s sink at %s:%d", s.Kind, s.File, s.Line)
		} else {
			clean++
		}
	}
	if clean < 3 {
		t.Errorf("report proves %d sinks clean, want at least 3", clean)
	}
	annotated := map[string]bool{}
	for _, oi := range rep.OrderInvariant {
		annotated[oi.Func] = true
		if oi.Reason == "" {
			t.Errorf("order-invariant entry %s lost its reason", oi.Func)
		}
	}
	if !annotated["hipo/internal/pdcs.(streamReducer).reduce"] {
		t.Errorf("order-invariant inventory %v is missing pdcs.(streamReducer).reduce", annotated)
	}
	for _, a := range []string{"detorder", "fpassoc", "sharedwrite"} {
		if n, ok := rep.Findings[a]; !ok || n != 0 {
			t.Errorf("report counts %d surviving %s findings (present: %v), want 0", n, a, ok)
		}
	}
}

// TestOnlyStillValidatesDirectives: a malformed //hipo: directive is a
// finding even when -only selects a single whole-program analyzer.
func TestOnlyStillValidatesDirectives(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a scratch module; skipped in -short mode")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"a.go":   "package scratch\n\n// Hot is a hot-path root with a bad deny list.\n//\n//hipo:hotpath deny=bogus\nfunc Hot() int { return 1 }\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
	var out, errw bytes.Buffer
	if code := run([]string{"-only", "hotpath", "./..."}, &out, &errw); code != 1 {
		t.Errorf("-only hotpath exited %d, want 1; stdout:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "lintdirective: //hipo:hotpath deny list") {
		t.Errorf("output lacks the lintdirective finding:\n%s", out.String())
	}
}

// TestSARIFOutput runs the suite on a small package with -format=sarif and
// checks the log parses and carries a rule descriptor per analyzer.
func TestSARIFOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads module export data; skipped in -short mode")
	}
	chdirModuleRoot(t)
	var out, errw bytes.Buffer
	if code := run([]string{"-format=sarif", "./internal/model"}, &out, &errw); code != 0 {
		t.Fatalf("-format=sarif exited %d: %s", code, errw.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version=%q runs=%d, want 2.1.0 with one run", log.Version, len(log.Runs))
	}
	rules := map[string]bool{}
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, a := range lint.Analyzers() {
		if !rules[a.Name] {
			t.Errorf("SARIF log missing rule descriptor for %q", a.Name)
		}
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errw.String())
	}
	for _, a := range lint.Analyzers() {
		if name := a.Name; !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestSelectAnalyzersAcceptsProgramNames(t *testing.T) {
	// Every analyzer runs over the whole loaded program, so whole-program
	// names select like any other.
	as, err := selectAnalyzers("hotpath, lockorder")
	if err != nil {
		t.Fatalf("selectAnalyzers(hotpath, lockorder) = %v, want success", err)
	}
	if len(as) != 2 || as[0].Name != "hotpath" || as[1].Name != "lockorder" {
		t.Errorf("selectAnalyzers = %v, want [hotpath lockorder]", as)
	}
}

func TestSelectAnalyzers(t *testing.T) {
	as, err := selectAnalyzers("floatcmp, errdrop")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "floatcmp" || as[1].Name != "errdrop" {
		t.Errorf("selectAnalyzers = %v, want [floatcmp errdrop]", as)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Error("selectAnalyzers(nosuch) succeeded, want error")
	}
}

func TestUnknownAnalyzerFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-only", "bogus", "./..."}, &out, &errw); code != 2 {
		t.Errorf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer message", errw.String())
	}
}
