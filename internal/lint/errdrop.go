package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDropAnalyzer flags call statements whose error result vanishes. In a
// pipeline whose answers are numbers, a swallowed error does not crash —
// it quietly ships a wrong placement. Discarding must be explicit
// (`_ = f()`), which survives review and grep; an invisible drop does not.
// Deferred calls (`defer f.Close()`) are not flagged.
var ErrDropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc: "flags expression statements that discard a returned error; write " +
		"`_ = f()` to discard explicitly, or handle it — silent drops turn " +
		"infeasible scenarios into wrong placements",
	Run: perPackage(nil, runErrDrop),
}

// errDropExempt reports callees whose error return is noise by contract:
//
//   - fmt.Print* writes to stdout; fmt.Fprint* to os.Stdout/os.Stderr and
//     to http.ResponseWriter (nothing can be done for a dead client once
//     the handler is streaming a body);
//   - methods on in-memory writers that document err == nil
//     (strings.Builder, bytes.Buffer, hash.Hash);
//   - http.ResponseWriter.Write itself, for the same dead-client reason.
//
// Everything else must handle the error or discard it with `_ =`.
func errDropExempt(pass *Pass, call *ast.CallExpr) bool {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if selectorPackage(pass, fun) == "fmt" {
		if strings.HasPrefix(fun.Sel.Name, "Print") {
			return true
		}
		if strings.HasPrefix(fun.Sel.Name, "Fprint") && len(call.Args) > 0 {
			return exemptWriter(pass, call.Args[0])
		}
		return false
	}
	if sel, ok := pass.Info.Selections[fun]; ok {
		recv := sel.Recv()
		if exemptWriterType(recv) {
			return true
		}
	}
	return false
}

// exemptWriter reports whether the writer expression is os.Stdout,
// os.Stderr, or has an exempt writer type.
func exemptWriter(pass *Pass, w ast.Expr) bool {
	if sel, ok := w.(*ast.SelectorExpr); ok && selectorPackage(pass, sel) == "os" {
		if sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr" {
			return true
		}
	}
	if t := pass.TypeOf(w); t != nil {
		return exemptWriterType(t)
	}
	return false
}

// exemptWriterType reports writer types whose Write contract makes the
// error useless: in-memory sinks that never fail, and client response
// streams whose failure cannot be acted on.
func exemptWriterType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t.String() {
	case "strings.Builder", "bytes.Buffer", "hash.Hash", "net/http.ResponseWriter":
		return true
	}
	return false
}

// returnsError reports whether the call yields an error, alone or as one
// member of a tuple.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

func runErrDrop(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if returnsError(pass, call) && !errDropExempt(pass, call) {
				pass.Reportf(call.Pos(), "call discards its error result; handle it or write `_ = ...` to discard explicitly")
			}
			return true
		})
	}
	return nil
}
