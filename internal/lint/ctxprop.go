package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxPropAnalyzer is the interprocedural complement of ctxflow: inside a
// function that receives a context.Context, every call to a callee that
// (per its whole-program effect summary) blocks, spawns goroutines, or is
// unresolvable must be handed a context derived from the received one. A
// call that passes context.Background()/context.TODO() — or any context
// not derived from the parameter — silently severs the caller's
// cancellation and deadline chain exactly where it matters: in code that
// can park or fan out. Deliberate severing (a cleanup path that must
// outlive the request, a detached audit write) is fine, but must be
// explicit: //lint:ignore ctxprop <reason>.
//
// Calls to external (non-program) functions are not checked — their
// blocking behavior is unknown and the per-package ctxflow analyzer
// already polices root-context creation. Fresh root contexts passed to
// known-blocking program callees get a machine-applicable fix replacing
// the argument with the in-scope context.
var CtxPropAnalyzer = &Analyzer{
	Name: "ctxprop",
	Doc: "flags calls inside context-receiving functions that pass a " +
		"context not derived from the received one to a program callee " +
		"whose effect summary blocks, spawns, or is unknown; sever " +
		"deliberately with //lint:ignore ctxprop <reason>",
	Run: runCtxProp,
}

// ctxPropBlocking is the summary mask that makes severing dangerous.
var ctxPropBlocking = EffNone.With(EffBlock).With(EffGo).With(EffUnknown)

func runCtxProp(prog *Program, report func(Diagnostic)) error {
	for _, pkg := range prog.Packages {
		if isCommandPackage(pkg.ImportPath) {
			continue
		}
		idx := pkgEdgeIndex(prog, pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkCtxProp(pkg, fd, idx, report)
			}
		}
	}
	return nil
}

// pkgEdgeIndex maps call positions to resolved call-graph edges across
// every function node of the package.
func pkgEdgeIndex(prog *Program, pkg *Package) map[token.Position][]Edge {
	idx := make(map[token.Position][]Edge)
	for _, n := range prog.SortedFuncs() {
		if n.Pkg != pkg {
			continue
		}
		for _, e := range n.Edges {
			idx[e.Pos] = append(idx[e.Pos], e)
		}
	}
	return idx
}

func checkCtxProp(pkg *Package, fd *ast.FuncDecl, idx map[token.Position][]Edge, report func(Diagnostic)) {
	info := pkg.Info
	var ctxName string
	derived := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj == nil || name.Name == "_" || !isContextType(obj.Type()) {
					continue
				}
				derived[obj] = true
				if ctxName == "" {
					ctxName = name.Name
				}
			}
		}
	}
	if len(derived) == 0 {
		return
	}
	growDerived(info, fd.Body, derived)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		sig := calleeSignature(info, call)
		if sig == nil {
			return true
		}
		params := sig.Params()
		for i := 0; i < params.Len() && i < len(call.Args); i++ {
			if !isContextType(params.At(i).Type()) {
				continue
			}
			arg := call.Args[i]
			if isDerivedExpr(info, arg, derived) {
				continue
			}
			// Only program callees whose summary blocks/spawns/is unknown.
			blocking, callee := calleeBlocks(idx, pkg.Fset.Position(call.Pos()))
			if !blocking {
				continue
			}
			d := Diagnostic{
				Pos: pkg.Fset.Position(arg.Pos()),
				Message: fmt.Sprintf("context severed: %s blocks or spawns but receives %s instead of a context derived from %s; propagate it or sever explicitly with //lint:ignore ctxprop <reason>",
					callee, renderCtxArg(arg), ctxName),
			}
			if isRootCtxCall(info, arg) && ctxName != "" {
				start := pkg.Fset.Position(arg.Pos())
				end := pkg.Fset.Position(arg.End())
				d.Fixes = []SuggestedFix{{
					Message: "propagate the in-scope context " + ctxName,
					Edits: []TextEdit{{
						File:    start.Filename,
						Start:   start.Offset,
						End:     end.Offset,
						NewText: ctxName,
					}},
				}}
			}
			report(d)
		}
		return true
	})
}

// growDerived extends the derived-context set to a fixpoint over the
// assignments in body: any variable assigned from an expression derived
// from the received context (a With* wrapper, an alias, a tuple result) is
// itself derived.
func growDerived(info *types.Info, body *ast.BlockStmt, derived map[types.Object]bool) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(id *ast.Ident) {
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || !isContextType(obj.Type()) || derived[obj] {
					return
				}
				derived[obj] = true
				changed = true
			}
			if len(as.Rhs) == len(as.Lhs) {
				for i, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if isDerivedExpr(info, as.Rhs[i], derived) {
						mark(id)
					}
				}
			} else if len(as.Rhs) == 1 {
				// ctx, cancel := context.WithTimeout(parent, d)
				if isDerivedExpr(info, as.Rhs[0], derived) {
					for _, lhs := range as.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							mark(id)
						}
					}
				}
			}
			return true
		})
	}
}

// isDerivedExpr reports whether e evaluates to a context derived from the
// received one: the parameter itself, a derived variable, or any call that
// takes a derived context as an argument (context.WithCancel and custom
// wrappers alike).
func isDerivedExpr(info *types.Info, e ast.Expr, derived map[types.Object]bool) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		return obj != nil && derived[obj]
	case *ast.CallExpr:
		for _, arg := range e.Args {
			if isDerivedExpr(info, arg, derived) {
				return true
			}
		}
		return false
	}
	return false
}

// calleeSignature returns the signature of the called function, nil for
// builtins and non-calls.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// calleeBlocks reports whether any resolved program callee at pos has a
// blocking/spawning/unknown summary, returning a representative name.
func calleeBlocks(idx map[token.Position][]Edge, pos token.Position) (bool, string) {
	for _, e := range idx[pos] {
		if e.Kind == "passes to" || e.Callee == nil {
			continue
		}
		if e.Callee.Summary.Intersect(ctxPropBlocking) != 0 {
			return true, e.Callee.Key
		}
	}
	return false, ""
}

// isRootCtxCall reports whether e is context.Background() or
// context.TODO().
func isRootCtxCall(info *types.Info, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "context" && (obj.Name() == "Background" || obj.Name() == "TODO")
}

// renderCtxArg renders the offending argument compactly.
func renderCtxArg(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return strings.ReplaceAll(s, "\n", " ")
}
