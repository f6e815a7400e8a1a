package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SharedWriteAnalyzer is the whole-program extension of mutexguard: it
// follows spawn edges into the goroutine subgraph and verifies that every
// call to a lock-contract function ("must be called with mu held" doc, the
// grammar mutexguard's heldAtEntry parses) happens with the contract lock
// provably held. mutexguard checks guarded-field writes function-locally;
// what it cannot see is a spawned closure handing control to a contract
// callee through a helper that neither locks nor carries the contract —
// the shared-write escape. Lock identity is canonical (pkg.Type.field),
// the same approximation lockorder uses.
var SharedWriteAnalyzer = &Analyzer{
	Name: "sharedwrite",
	Doc: "follows spawn edges into goroutine-reachable code and flags calls " +
		"to \"must be called with <mu> held\" contract functions where the " +
		"dataflow cannot prove the lock held — guarded state escaping into " +
		"a concurrent writer; lock around the call or document the contract " +
		"on the intermediate function",
	Run: runSharedWrite,
}

// spawnStep reconstructs how the goroutine subgraph reached a node.
type spawnStep struct {
	parent *FuncNode
	edge   Edge
}

func runSharedWrite(prog *Program, report func(Diagnostic)) error {
	// BFS the spawned subgraph: spawn targets are roots; plain calls extend
	// it. Parent steps reconstruct the spawn chain for diagnostics.
	parent := make(map[*FuncNode]spawnStep)
	var queue []*FuncNode
	enqueue := func(n *FuncNode, from *FuncNode, e Edge) {
		if n == nil {
			return
		}
		if _, seen := parent[n]; seen {
			return
		}
		parent[n] = spawnStep{parent: from, edge: e}
		queue = append(queue, n)
	}
	for _, n := range prog.SortedFuncs() {
		for _, e := range n.Edges {
			if e.Kind == "spawns" {
				enqueue(e.Callee, n, e)
			}
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if e.Kind == "calls" || e.Kind == "calls via interface" {
				enqueue(e.Callee, n, e)
			}
		}
	}

	reachable := make([]*FuncNode, 0, len(parent))
	for n := range parent {
		reachable = append(reachable, n)
	}
	sort.Slice(reachable, func(i, j int) bool { return reachable[i].Key < reachable[j].Key })

	seen := make(map[string]bool)
	for _, n := range reachable {
		checkSpawnedCaller(prog, n, parent, seen, report)
	}
	return nil
}

// checkSpawnedCaller runs the lock-state dataflow over one goroutine-
// reachable function and verifies its calls into contract callees.
func checkSpawnedCaller(prog *Program, n *FuncNode, parents map[*FuncNode]spawnStep, seen map[string]bool, report func(Diagnostic)) {
	var body *ast.BlockStmt
	switch {
	case n.Decl != nil:
		body = n.Decl.Body
	case n.Lit != nil:
		body = n.Lit.Body
	}
	if body == nil {
		return
	}
	// Contract callees this body can reach directly.
	edgeIndex := make(map[token.Position][]Edge, len(n.Edges))
	hasContractCallee := false
	for _, e := range n.Edges {
		edgeIndex[e.Pos] = append(edgeIndex[e.Pos], e)
		if e.Kind != "spawns" && e.Callee != nil && e.Callee.Decl != nil && len(heldAtEntry(e.Callee.Decl)) > 0 {
			hasContractCallee = true
		}
	}
	if !hasContractCallee {
		return
	}

	pkg := n.Pkg
	// A scratch pass: only the held-lock dataflow is wanted, not findings.
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, report: func(Diagnostic) {}}

	// Canonical identities of every mutex this body manipulates, plus the
	// caller's own entry contract.
	canon := make(map[string]string)
	InspectNode(body, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock", "Unlock", "RUnlock":
				if isMutexType(pass.TypeOf(sel.X)) {
					canon[types.ExprString(sel.X)] = canonicalLockKey(pkg, sel.X)
				}
			}
		}
		return true
	})
	entry := make(lockMap)
	if n.Decl != nil {
		entry = heldAtEntry(n.Decl)
		for path := range entry {
			if _, ok := canon[path]; !ok {
				canon[path] = contractLockKey(pkg, n.Decl, path)
			}
		}
	}

	g := NewCFG(body)
	states := Solve(g, &lockProblem{pass: pass, entry: entry})
	prob := &lockProblem{pass: pass}
	heldCanon := func(st lockMap) map[string]bool {
		out := make(map[string]bool)
		for path, s := range st {
			if s != lockHeld {
				continue
			}
			if k := canon[path]; k != "" {
				out[k] = true
			}
		}
		return out
	}

	for _, blk := range g.Blocks {
		stAny, ok := states[blk]
		if !ok || stAny == nil {
			continue // unreachable
		}
		st := stAny.(lockMap).clone()
		for _, node := range blk.Nodes {
			InspectNode(node, func(c ast.Node) bool {
				if _, ok := c.(*ast.FuncLit); ok {
					return false
				}
				// Deferred unlocks run at exit; mirroring lockProblem, they
				// neither lower the state here nor get their calls checked.
				if _, ok := c.(*ast.DeferStmt); ok {
					return false
				}
				call, ok := c.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isMutexType(pass.TypeOf(sel.X)) {
					path := types.ExprString(sel.X)
					switch sel.Sel.Name {
					case "Lock", "RLock":
						st[path] = lockHeld
						return true
					case "Unlock", "RUnlock":
						st[path] = lockNotHeld
						return true
					}
				}
				pos := pkg.Fset.Position(call.Pos())
				held := heldCanon(st)
				for _, e := range edgeIndex[pos] {
					if e.Kind == "spawns" || e.Callee == nil || e.Callee.Decl == nil {
						continue
					}
					contract := heldAtEntry(e.Callee.Decl)
					if len(contract) == 0 {
						continue
					}
					var missing []string
					for path := range contract {
						key := contractLockKey(e.Callee.Pkg, e.Callee.Decl, path)
						if !held[key] {
							missing = append(missing, key)
						}
					}
					if len(missing) == 0 {
						continue
					}
					sort.Strings(missing)
					dedupKey := fmt.Sprintf("%s|%s|%s", n.Key, pos, e.Callee.Key)
					if seen[dedupKey] {
						continue
					}
					seen[dedupKey] = true
					report(Diagnostic{
						Pos: pos,
						Message: fmt.Sprintf("goroutine-reachable call to %s, whose contract requires %s held, "+
							"without the lock provably held in %s; lock around the call or document the "+
							"\"must be called with ... held\" contract on this function",
							e.Callee.Key, strings.Join(missing, ", "), n.Key),
						Related: spawnChain(n, parents),
					})
				}
				return true
			})
			st = prob.Transfer(st, node).(lockMap).clone()
		}
	}
}

// spawnChain reconstructs how the goroutine subgraph reached n, spawn
// point first.
func spawnChain(n *FuncNode, parents map[*FuncNode]spawnStep) []RelatedPos {
	var rev []RelatedPos
	cur := n
	for steps := 0; steps < maxChainSteps; steps++ {
		step, ok := parents[cur]
		if !ok || step.parent == nil {
			break
		}
		rev = append(rev, RelatedPos{
			Pos:     step.edge.Pos,
			Message: fmt.Sprintf("%s %s %s", step.parent.Key, step.edge.Kind, cur.Key),
		})
		cur = step.parent
	}
	// Reverse: spawn site first.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
