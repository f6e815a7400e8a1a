package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeakAnalyzer flags `go` statements that launch a goroutine with no
// cancellation path reachable in its control-flow graph: some reachable
// block of the goroutine body can never reach function exit. A worker loop
// that honors ctx.Done() or returns on a closed channel has an exit edge
// (`case <-ctx.Done(): return`, `for range ch`); a bare `for { select
// { case <-in: … } }` does not — once the serving layer stops submitting,
// that goroutine is pinned forever, and under churn (one per request, one
// per solve shard) pinned goroutines are a memory leak with a delay fuse.
//
// Bodies are resolved through function literals and same-package function
// or method calls; cross-package launches are outside the intra-procedural
// contract and are not flagged.
var GoroLeakAnalyzer = &Analyzer{
	Name: "goroleak",
	Doc: "flags goroutines whose body contains a reachable loop with no path " +
		"to termination (no return, break, closing range, or ctx.Done() exit " +
		"reachable in the CFG); such goroutines leak once their input side stops",
	Run: perPackage(nil, runGoroLeak),
}

func runGoroLeak(pass *Pass) error {
	decls := packageFuncDecls(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, name := goBody(pass, decls, gs)
			if body == nil {
				return true
			}
			if blk := nonTerminatingBlock(body); blk != nil {
				pass.Reportf(gs.Pos(),
					"goroutine %s runs forever: the loop at line %d has no reachable path to termination (add a ctx.Done()/stop-channel case that returns, range over a closable channel, or a join)",
					name, pass.Fset.Position(firstNodePos(blk, body)).Line)
			}
			return true
		})
	}
	return nil
}

// packageFuncDecls maps function and method objects to their declarations
// for same-package body resolution.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// goBody resolves the body of the function a go statement launches, and a
// human-readable name for it.
func goBody(pass *Pass, decls map[types.Object]*ast.FuncDecl, gs *ast.GoStmt) (*ast.BlockStmt, string) {
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body, "(func literal)"
	case *ast.Ident:
		if fd, ok := decls[pass.Info.Uses[fun]]; ok {
			return fd.Body, fun.Name
		}
	case *ast.SelectorExpr:
		if fd, ok := decls[pass.Info.Uses[fun.Sel]]; ok {
			return fd.Body, fun.Sel.Name
		}
	}
	return nil, ""
}

// nonTerminatingBlock returns a block of body's CFG that is reachable from
// entry but cannot reach exit, or nil when every reachable block can
// terminate.
func nonTerminatingBlock(body *ast.BlockStmt) *Block {
	g := NewCFG(body)
	reach := g.Reachable()
	exitReach := g.CanReachExit()
	var worst *Block
	for _, blk := range g.Blocks {
		if reach[blk] && !exitReach[blk] {
			if worst == nil || blk.Index < worst.Index {
				worst = blk
			}
		}
	}
	return worst
}

// firstNodePos finds a stable position for the stuck block: its first
// node, or the body position for empty blocks.
func firstNodePos(blk *Block, body *ast.BlockStmt) token.Pos {
	for _, n := range blk.Nodes {
		return n.Pos()
	}
	// Empty blocks (loop heads) borrow a successor's position.
	seen := map[*Block]bool{}
	for cur := blk; cur != nil && !seen[cur]; {
		seen[cur] = true
		for _, n := range cur.Nodes {
			return n.Pos()
		}
		if len(cur.Succs) == 0 {
			break
		}
		cur = cur.Succs[0]
	}
	return body.Pos()
}
