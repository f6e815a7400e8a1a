package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/printer"
	"go/token"
	"os"
	"sort"
)

// Machine-applicable fixes, mirroring the SuggestedFix/TextEdit shape of
// golang.org/x/tools/go/analysis. Edits carry resolved file paths and byte
// offsets (not token.Pos) so a Diagnostic stays self-contained after the
// FileSet is gone — the -fix mode of cmd/hipolint applies them straight to
// the files on disk.

// TextEdit replaces the byte range [Start, End) of File with NewText.
type TextEdit struct {
	File       string
	Start, End int
	NewText    string
}

// SuggestedFix is one self-consistent set of edits that resolves a
// diagnostic. Fixes are optional: most analyzers only diagnose.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// ReportfFix records a diagnostic at pos carrying a machine-applicable
// fix. A nil fix degrades to Reportf.
func (p *Pass) ReportfFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	d := Diagnostic{Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)}
	if fix != nil {
		d.Fixes = []SuggestedFix{*fix}
	}
	p.report(d)
}

// ReplaceNode builds a fix that substitutes newText for node n.
func (p *Pass) ReplaceNode(msg string, n ast.Node, newText string) *SuggestedFix {
	start := p.Fset.Position(n.Pos())
	end := p.Fset.Position(n.End())
	return &SuggestedFix{
		Message: msg,
		Edits: []TextEdit{{
			File:    start.Filename,
			Start:   start.Offset,
			End:     end.Offset,
			NewText: newText,
		}},
	}
}

// NodeText renders n back to source, for building replacement text around
// an existing expression.
func (p *Pass) NodeText(n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, p.Fset, n); err != nil {
		return ""
	}
	return buf.String()
}

// ApplyFixes applies every fix attached to diags and returns the new
// contents of each touched file, gofmt-formatted. Edits are applied
// high-offset-first per file; a fix whose edits overlap an already-applied
// edit is skipped (first reported wins) and returned in dropped.
func ApplyFixes(diags []Diagnostic) (updated map[string][]byte, dropped []Diagnostic, err error) {
	type edit struct {
		TextEdit
		diag int // index into diags, for conflict attribution
	}
	perFile := make(map[string][]edit)
	for i, d := range diags {
		for _, f := range d.Fixes {
			for _, e := range f.Edits {
				perFile[e.File] = append(perFile[e.File], edit{TextEdit: e, diag: i})
			}
		}
	}
	if len(perFile) == 0 {
		return nil, nil, nil
	}
	updated = make(map[string][]byte, len(perFile))
	droppedIdx := make(map[int]bool)
	for file, edits := range perFile {
		src, rerr := os.ReadFile(file)
		if rerr != nil {
			return nil, nil, fmt.Errorf("lint: applying fixes: %v", rerr)
		}
		// Apply from the end of the file backwards so earlier offsets stay
		// valid; drop any edit overlapping one already applied.
		sort.Slice(edits, func(i, j int) bool {
			if edits[i].Start != edits[j].Start {
				return edits[i].Start > edits[j].Start
			}
			return edits[i].End > edits[j].End
		})
		out := src
		lastStart := len(src) + 1
		for _, e := range edits {
			if e.Start < 0 || e.End > len(src) || e.Start > e.End || e.End > lastStart {
				droppedIdx[e.diag] = true
				continue
			}
			out = append(out[:e.Start:e.Start], append([]byte(e.NewText), out[e.End:]...)...)
			lastStart = e.Start
		}
		formatted, ferr := format.Source(out)
		if ferr != nil {
			return nil, nil, fmt.Errorf("lint: fixed %s does not parse: %v", file, ferr)
		}
		updated[file] = formatted
	}
	for i := range diags {
		if droppedIdx[i] {
			dropped = append(dropped, diags[i])
		}
	}
	return updated, dropped, nil
}
