// Package linttest runs lint analyzers over testdata packages and checks
// reported diagnostics against expectations written inline, in the style
// of golang.org/x/tools/go/analysis/analysistest.
//
// # Expectation grammar
//
// A `// want` comment carries one or more patterns, each quoted with
// backquotes or double quotes and separated by spaces:
//
//	x := a == b // want `raw == on floating-point operands`
//	y := a == b || c != d // want `raw ==` `raw !=`
//
// Each pattern is a regular expression that must match the message of a
// distinct diagnostic reported on that line (a line with two patterns
// needs two diagnostics), and every diagnostic must in turn be claimed by
// exactly one pattern. Pattern text is compiled exactly as written — no
// string unquoting happens first — so prefer backquotes, and inside
// double quotes remember that `\"` reaches the regexp engine as the two
// characters backslash and quote. Matching is unanchored substring search
// by default; use ^ and $ to anchor a pattern to the full message:
//
//	return x / y // want "^denominator y is never compared.*$"
//
// Trailing text after the final quoted pattern is ignored, so a want
// comment may end with an explanatory note.
package linttest

import (
	"fmt"
	"go/importer"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"hipo/internal/lint"
)

var (
	loadOnce sync.Once
	exported *lint.ExportData
	loadErr  error
)

// moduleRoot locates the enclosing module's root via go env GOMOD.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module")
	}
	return filepath.Dir(gomod), nil
}

// exportData builds (once) the export-data closure of the whole module,
// so testdata may import anything the module already depends on.
func exportData(t *testing.T) *lint.ExportData {
	t.Helper()
	loadOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			loadErr = err
			return
		}
		exported, loadErr = lint.LoadExportData(root)
	})
	if loadErr != nil {
		t.Fatalf("loading export data: %v", loadErr)
	}
	return exported
}

// want is one expectation parsed from a `// want` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var (
	// wantMarkerRE locates the `// want ` marker; the patterns follow it.
	wantMarkerRE = regexp.MustCompile(`//\s*want\s+`)
	// wantPatRE matches one quoted pattern at the start of the remainder.
	wantPatRE = regexp.MustCompile("^(`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\")\\s*")
)

// parseWants scans a source file for `// want` expectations. One marker
// may carry several space-separated quoted patterns, each claiming its own
// diagnostic on that line.
func parseWants(path string) ([]*want, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wants []*want
	for i, line := range strings.Split(string(data), "\n") {
		loc := wantMarkerRE.FindStringIndex(line)
		if loc == nil {
			continue
		}
		rest := line[loc[1]:]
		for {
			m := wantPatRE.FindStringSubmatch(rest)
			if m == nil {
				break
			}
			pat := m[2]
			if m[3] != "" {
				pat = m[3]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", path, i+1, pat, err)
			}
			wants = append(wants, &want{file: path, line: i + 1, re: re})
			rest = rest[len(m[0]):]
		}
	}
	return wants, nil
}

// Run type-checks the testdata directory dir as one package with the
// given import path, builds the whole-program view over it, applies the
// analyzer, and verifies its diagnostics against the `// want` comments.
// The import path decides scope gating (package allowlists, command
// exemptions), so fixtures may pose as pipeline packages like
// "hipo/internal/jobs".
func Run(t *testing.T, a *lint.Analyzer, dir, importPath string) {
	t.Helper()
	checkWants(t, dir, run(t, a, dir, importPath))
}

// RunExpectClean asserts the analyzer reports nothing on dir when loaded
// under importPath — used to exercise scope gating and suppressions.
func RunExpectClean(t *testing.T, a *lint.Analyzer, dir, importPath string) {
	t.Helper()
	for _, d := range run(t, a, dir, importPath) {
		t.Errorf("expected no diagnostics under %s, got: %s", importPath, d)
	}
}

// run loads dir under importPath and applies a through lint.Run.
func run(t *testing.T, a *lint.Analyzer, dir, importPath string) []lint.Diagnostic {
	t.Helper()
	prog := lint.BuildProgram([]*lint.Package{loadDir(t, dir, importPath)})
	diags, err := lint.Run(prog, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	return diags
}

// loadDir type-checks the testdata directory as one package.
func loadDir(t *testing.T, dir, importPath string) *lint.Package {
	t.Helper()
	exp := exportData(t)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exp.Lookup)
	pkg, err := lint.CheckDir(fset, imp, importPath, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkg
}

// checkWants verifies diags against the `// want` comments of every .go
// file in dir: each diagnostic must be claimed by exactly one pattern on
// its line, and every pattern must claim a diagnostic.
func checkWants(t *testing.T, dir string, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*want
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		ws, err := parseWants(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, ws...)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
