package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignoreKey identifies one (file, line, analyzer) suppression.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type ignoreSet map[ignoreKey]bool

// collectIgnores scans all comments for //lint:ignore directives. A
// directive suppresses the named analyzer (or every analyzer, for name
// "*") on the directive's own line and on the line immediately below it,
// so both trailing and leading comment placement work:
//
//	x := a == b //lint:ignore floatcmp exact sentinel comparison
//
//	//lint:ignore floatcmp exact sentinel comparison
//	x := a == b
//
// When the line below the directive starts a statement that spans several
// lines, the suppression covers the statement's whole extent — a
// diagnostic on a continuation line is still the same statement the
// directive annotates. For statements with a brace-delimited body (if,
// for, switch, select) the extent stops at the opening brace: the
// directive covers the multi-line header, never the body.
//
// Suppressions are added to ign. Directives missing the analyzer name or
// the reason are returned as diagnostics so that a suppression can never
// silently rot.
func collectIgnores(ign ignoreSet, fset *token.FileSet, files []*ast.File) []Diagnostic {
	var bad []Diagnostic
	for _, f := range files {
		extents := stmtExtents(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Analyzer: "lintdirective",
						Pos:      pos,
						Message:  "malformed //lint:ignore directive: need `//lint:ignore <analyzer> <reason>`",
					})
					continue
				}
				name := fields[0]
				if name != "*" && ByName(name) == nil {
					bad = append(bad, Diagnostic{
						Analyzer: "lintdirective",
						Pos:      pos,
						Message:  "//lint:ignore names unknown analyzer " + name,
					})
					continue
				}
				last := pos.Line + 1
				if end, ok := extents[pos.Line+1]; ok && end > last {
					last = end
				}
				for line := pos.Line; line <= last; line++ {
					ign[ignoreKey{pos.Filename, line, name}] = true
				}
			}
		}
	}
	return bad
}

// stmtExtents maps each line that starts a statement to the last line of
// that statement's suppressible extent. Statements carrying a block body
// are capped at the opening brace so a leading directive covers only the
// header; when several statements start on one line (a for-loop's init,
// condition, and post all do) the largest extent wins.
func stmtExtents(fset *token.FileSet, f *ast.File) map[int]int {
	extents := make(map[int]int)
	ast.Inspect(f, func(n ast.Node) bool {
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		end := stmt.End()
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			// A bare block is pure structure; its statements map themselves.
			return true
		case *ast.IfStmt:
			end = s.Body.Lbrace
		case *ast.ForStmt:
			end = s.Body.Lbrace
		case *ast.RangeStmt:
			end = s.Body.Lbrace
		case *ast.SwitchStmt:
			end = s.Body.Lbrace
		case *ast.TypeSwitchStmt:
			end = s.Body.Lbrace
		case *ast.SelectStmt:
			end = s.Body.Lbrace
		case *ast.LabeledStmt:
			// The labeled statement maps itself with its own cap.
			return true
		}
		start := fset.Position(stmt.Pos()).Line
		endLine := fset.Position(end).Line
		if endLine > extents[start] {
			extents[start] = endLine
		}
		return true
	})
	return extents
}

func (s ignoreSet) suppressed(d Diagnostic) bool {
	return s[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		s[ignoreKey{d.Pos.Filename, d.Pos.Line, "*"}]
}
