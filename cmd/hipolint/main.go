// Command hipolint runs the repository's domain-aware static-analysis
// suite (internal/lint) over the module, or a subset of its packages:
// fifteen analyzers, from single-package checks (floatcmp, detrand,
// wallclock, ctxflow, errdrop, anglesafe, mutexguard, nanflow, goroleak)
// to whole-program ones built on the interprocedural call-graph,
// effect-summary, and taint engines (hotpath, lockorder, ctxprop,
// detorder, fpassoc, sharedwrite).
//
//	go run ./cmd/hipolint ./...
//	go run ./cmd/hipolint -only floatcmp,errdrop ./internal/geom
//	go run ./cmd/hipolint -only hotpath ./...
//	go run ./cmd/hipolint -fix ./...                 # apply suggested fixes
//	go run ./cmd/hipolint -format=sarif ./... > out.sarif
//	go run ./cmd/hipolint -report hipolint.json ./...
//
// -report writes the hipolint-report/v1 JSON: every //hipo:hotpath root
// with its effect and order verdicts, every bit-identity sink, the
// //hipo:order-invariant inventory, and the determinism finding counts.
//
// Exit status: 0 when no diagnostics, 1 when any finding is reported, 2 on
// operational errors. Malformed //lint:ignore and //hipo: directives are
// findings whichever analyzers -only selects. Suppress an individual
// finding with `//lint:ignore <analyzer> <reason>` on or directly above
// the flagged line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hipo/internal/lint"
)

// printf writes CLI output with an explicit error discard: a failed write
// to the user's terminal is not actionable beyond the exit code.
func printf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run loads the module around the working directory and applies the
// selected analyzers to every listed package.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("hipolint", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		only       = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		list       = fs.Bool("list", false, "list analyzers and exit")
		fix        = fs.Bool("fix", false, "apply machine-suggested fixes to the source files")
		formatName = fs.String("format", "text", "output format: text or sarif")
		reportPath = fs.String("report", "", "write the hot-root, sink and finding report ("+lint.ReportSchema+" JSON) to this file")
	)
	fs.Usage = func() {
		printf(errw, "usage: hipolint [-only name,...] [-list] [-fix] [-format text|sarif] [-report file] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			printf(out, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *formatName != "text" && *formatName != "sarif" {
		printf(errw, "hipolint: unknown -format %q (want text or sarif)\n", *formatName)
		return 2
	}
	diags, analyzers, err := lintModule(*only, *reportPath, fs.Args())
	if err != nil {
		printf(errw, "hipolint: %v\n", err)
		return 2
	}

	if *fix {
		updated, dropped, err := lint.ApplyFixes(diags)
		if err != nil {
			printf(errw, "hipolint: %v\n", err)
			return 2
		}
		for file, src := range updated {
			if err := os.WriteFile(file, src, 0o644); err != nil {
				printf(errw, "hipolint: %v\n", err)
				return 2
			}
		}
		if len(updated) > 0 {
			printf(errw, "hipolint: fixed %d file(s)\n", len(updated))
		}
		// Diagnostics whose fix landed are resolved; the rest — no fix
		// attached, or the fix conflicted with another edit — still count.
		diags = unfixedDiagnostics(diags, dropped)
	}

	if *formatName == "sarif" {
		root, err := os.Getwd()
		if err == nil {
			err = lint.WriteSARIF(out, analyzers, diags, root)
		}
		if err != nil {
			printf(errw, "hipolint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			printf(out, "%s\n", d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// lintModule loads the packages matching patterns, runs the analyzers
// -only selects, and writes the report when reportPath is set.
func lintModule(only, reportPath string, patterns []string) ([]lint.Diagnostic, []*lint.Analyzer, error) {
	analyzers, err := selectAnalyzers(only)
	if err != nil {
		return nil, nil, err
	}
	pkgs, err := lint.LoadModule(".", patterns)
	if err != nil {
		return nil, nil, err
	}
	prog := lint.BuildProgram(pkgs)
	diags, err := lint.Run(prog, analyzers)
	if err != nil {
		return nil, nil, err
	}
	if reportPath != "" {
		if err := writeReport(reportPath, prog); err != nil {
			return nil, nil, err
		}
	}
	return diags, analyzers, nil
}

// writeReport builds the report for prog and writes it to path.
func writeReport(path string, prog *lint.Program) error {
	rep, err := lint.BuildReport(prog)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lint.WriteReport(f, rep); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// unfixedDiagnostics keeps the diagnostics -fix could not resolve: those
// with no suggested fix, plus those whose fix was dropped for overlapping
// another edit.
func unfixedDiagnostics(diags, dropped []lint.Diagnostic) []lint.Diagnostic {
	droppedSet := make(map[string]bool, len(dropped))
	for _, d := range dropped {
		droppedSet[d.String()] = true
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		if len(d.Fixes) == 0 || droppedSet[d.String()] {
			out = append(out, d)
		}
	}
	return out
}

// selectAnalyzers resolves the -only flag; an empty flag selects the
// whole suite.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.Analyzers(), nil
	}
	var as []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := lint.ByName(strings.TrimSpace(name))
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", strings.TrimSpace(name))
		}
		as = append(as, a)
	}
	return as, nil
}
