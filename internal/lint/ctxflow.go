package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer enforces context propagation on the solve path: library
// packages must thread the caller's context (the cancellation story of the
// job queue and server depends on it) rather than minting root contexts,
// and a function that accepts a context must actually use it.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc: "flags context.Background()/context.TODO() in library code (root " +
		"contexts belong in main/cmd layers) and context.Context parameters " +
		"that a function accepts but never propagates",
	Run: perPackage(func(path string) bool { return !isCommandPackage(path) }, runCtxFlow),
}

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if selectorPackage(pass, n) == "context" && (n.Sel.Name == "Background" || n.Sel.Name == "TODO") {
					pass.Reportf(n.Pos(), "context.%s in library code severs the caller's cancellation chain; accept and propagate a context instead", n.Sel.Name)
				}
			case *ast.FuncDecl:
				checkCtxParamUsed(pass, n)
			}
			return true
		})
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkCtxParamUsed reports context.Context parameters that the function
// body never references. A parameter named _ is an explicit opt-out (used
// to satisfy an interface), so it is not flagged.
func checkCtxParamUsed(pass *Pass, fd *ast.FuncDecl) {
	if fd.Body == nil || fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[name]
			if obj == nil || !isContextType(obj.Type()) {
				continue
			}
			used := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					used = true
					return false
				}
				return !used
			})
			if !used {
				pass.Reportf(name.Pos(), "context parameter %s is never used; propagate it (or name it _ to opt out explicitly)", name.Name)
			}
		}
	}
}
