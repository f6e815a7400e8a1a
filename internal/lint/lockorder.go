package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer builds the global lock-ordering graph of the serving
// stack: an edge A -> B is recorded whenever lock B is acquired — directly
// or anywhere inside a callee — at a point where lock A is provably held.
// A cycle in that graph (including the self-loop of re-acquiring a held
// mutex, which Go's non-reentrant sync.Mutex turns into a guaranteed
// deadlock) means two executions can take the locks in opposite orders and
// deadlock under contention.
//
// Locks are named canonically — "pkgpath.TypeName.field" for struct-field
// mutexes, "pkgpath.var" for package-level ones — so the order is global
// across every function and package; locals cannot participate in a global
// order and are excluded. Held-ness reuses the mutexguard machinery: only
// provably-held locks (held on every path, `defer mu.Unlock()` pending)
// generate edges, so a maybe-held merge stays silent. Goroutine launches
// do not extend the held set into the spawned body: the parent's locks are
// not ordered against a child goroutine's acquisitions.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "flags cycles in the global lock-ordering graph of the serving " +
		"stack (jobs, serve, solvecache, servemetrics): lock B acquired " +
		"while lock A is held orders A before B, and any cycle — self-loops " +
		"included — is a potential deadlock",
	Run: runLockOrder,
}

// lockOrderScope lists the package subtrees whose locks participate in the
// global order: the concurrent serving stack. Solver packages are
// single-solve scoped and excluded by design.
var lockOrderScope = []string{
	"hipo/internal/jobs",
	"hipo/internal/serve",
	"hipo/internal/servemetrics",
	"hipo/internal/solvecache",
}

func inLockOrderScope(lockKey string) bool {
	for _, p := range lockOrderScope {
		if strings.HasPrefix(lockKey, p+".") {
			return true
		}
	}
	return false
}

// orderEdge is one observed ordering: to was acquired while from was held.
type orderEdge struct {
	from, to string
	// sitePos is where the ordering happened (the acquisition or the call
	// that leads to it); acqPos is the underlying Lock call.
	sitePos token.Position
	acqPos  token.Position
	// via names the function whose body produced the edge.
	via string
}

func runLockOrder(prog *Program, report func(Diagnostic)) error {
	edges := make(map[[2]string]orderEdge)
	for _, n := range prog.SortedFuncs() {
		collectOrderEdges(prog, n, edges)
	}
	reportLockCycles(edges, report)
	return nil
}

// collectOrderEdges walks one function body with the lock-state dataflow
// and records ordering edges for direct acquisitions and for calls whose
// transitive acquisition set is known.
func collectOrderEdges(prog *Program, n *FuncNode, edges map[[2]string]orderEdge) {
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
	pkg := n.Pkg
	// A scratch pass: only the held-lock dataflow is wanted, not findings.
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, report: func(Diagnostic) {}}

	// Canonical names for every mutex path this body touches, plus the
	// receiver-contract paths from "must be called with mu held" docs.
	canon := make(map[string]string)
	InspectNode(body, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock":
			if isMutexType(pass.TypeOf(sel.X)) {
				canon[types.ExprString(sel.X)] = canonicalLockKey(pkg, sel.X)
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
	// With no canonicalizable mutex in sight (and no held-lock contract)
	// nothing can be provably held, so no edge can originate here.
	if len(canon) == 0 {
		return
	}

	g := NewCFG(body)
	states := Solve(g, &lockProblem{pass: pass, entry: entry})
	edgeIndex := make(map[token.Position][]Edge, len(n.Edges))
	for _, e := range n.Edges {
		edgeIndex[e.Pos] = append(edgeIndex[e.Pos], e)
	}
	heldKeys := func(st lockMap) []string {
		var out []string
		for path, s := range st {
			if s != lockHeld {
				continue
			}
			if k := canon[path]; k != "" && inLockOrderScope(k) {
				out = append(out, k)
			}
		}
		sort.Strings(out)
		return out
	}
	addEdge := func(from, to string, site, acq token.Position) {
		if !inLockOrderScope(to) {
			return
		}
		k := [2]string{from, to}
		if _, ok := edges[k]; !ok {
			edges[k] = orderEdge{from: from, to: to, sitePos: site, acqPos: acq, via: n.Key}
		}
	}
	prob := &lockProblem{pass: pass}
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
				call, ok := c.(*ast.CallExpr)
				if !ok {
					return true
				}
				pos := pkg.Fset.Position(call.Pos())
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isMutexType(pass.TypeOf(sel.X)) {
					path := types.ExprString(sel.X)
					switch sel.Sel.Name {
					case "Lock", "RLock":
						acquired := canon[path]
						if acquired != "" {
							for _, h := range heldKeys(st) {
								addEdge(h, acquired, pos, pos)
							}
						}
						st[path] = lockHeld
						return true
					case "Unlock", "RUnlock":
						st[path] = lockNotHeld
						return true
					}
				}
				// Interprocedural: charge the callee's transitive
				// acquisitions against the locks held here. Spawned
				// goroutines run concurrently, not nested, so they do not
				// order against the parent's held set.
				held := heldKeys(st)
				if len(held) == 0 {
					return true
				}
				for _, e := range edgeIndex[pos] {
					if e.Kind == "spawns" || e.Callee == nil {
						continue
					}
					acq := e.Callee.AcquiresAll
					keys := make([]string, 0, len(acq))
					for k := range acq {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					for _, k := range keys {
						for _, h := range held {
							addEdge(h, k, pos, acq[k])
						}
					}
				}
				return true
			})
			// Defers do not change state mid-function; Transfer handles that.
			st = prob.Transfer(st, node).(lockMap).clone()
		}
	}
}

// contractLockKey canonicalizes a "must be called with mu held" entry path
// ("r.mu") against the function's receiver type.
func contractLockKey(pkg *Package, fd *ast.FuncDecl, path string) string {
	recv, mu, ok := strings.Cut(path, ".")
	if !ok {
		// Package-level mutex named directly in the contract.
		return pkg.ImportPath + "." + path
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	if len(fd.Recv.List[0].Names) == 0 || fd.Recv.List[0].Names[0].Name != recv {
		return ""
	}
	t := typeOfExpr(pkg.Info, fd.Recv.List[0].Type)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + mu
}

// reportLockCycles finds strongly connected components of the ordering
// graph and reports each cycle once, with every participating edge as a
// related location.
func reportLockCycles(edges map[[2]string]orderEdge, report func(Diagnostic)) {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	for n := range adj {
		sort.Strings(adj[n])
	}
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	// Self-loops first: re-acquiring a held, non-reentrant mutex.
	for _, n := range sorted {
		if e, ok := edges[[2]string{n, n}]; ok {
			report(Diagnostic{
				Pos: e.sitePos,
				Message: fmt.Sprintf("lock %s is acquired while already held (in %s): sync mutexes are not reentrant, this deadlocks",
					n, e.via),
				Related: []RelatedPos{{Pos: e.acqPos, Message: "nested acquisition"}},
			})
		}
	}

	// Multi-lock cycles via SCCs of the ordering graph.
	for _, comp := range sccs(sorted, func(n string) []string { return adj[n] }) {
		if len(comp) < 2 {
			continue
		}
		sort.Strings(comp)
		cycle := findCycle(comp[0], comp, adj)
		if len(cycle) == 0 {
			continue
		}
		var related []RelatedPos
		var first *orderEdge
		for i := 0; i < len(cycle); i++ {
			from, to := cycle[i], cycle[(i+1)%len(cycle)]
			e, ok := edges[[2]string{from, to}]
			if !ok {
				continue
			}
			if first == nil {
				ec := e
				first = &ec
			}
			related = append(related, RelatedPos{
				Pos:     e.sitePos,
				Message: fmt.Sprintf("%s acquired while %s held (in %s)", to, from, e.via),
			})
		}
		if first == nil {
			continue
		}
		report(Diagnostic{
			Pos: first.sitePos,
			Message: fmt.Sprintf("inconsistent lock order creates a potential deadlock: %s -> %s",
				strings.Join(cycle, " -> "), cycle[0]),
			Related: related,
		})
	}
}

// findCycle returns a cycle through start restricted to comp, as the node
// sequence without repeating the start at the end.
func findCycle(start string, comp []string, adj map[string][]string) []string {
	in := make(map[string]bool, len(comp))
	for _, n := range comp {
		in[n] = true
	}
	// BFS from start back to start within the component.
	type pathNode struct {
		n    string
		prev int
	}
	visited := map[string]bool{}
	nodes := []pathNode{{n: start, prev: -1}}
	for i := 0; i < len(nodes); i++ {
		cur := nodes[i]
		for _, w := range adj[cur.n] {
			if !in[w] {
				continue
			}
			if w == start {
				// Unwind.
				var rev []string
				for j := i; j >= 0; j = nodes[j].prev {
					rev = append(rev, nodes[j].n)
				}
				out := make([]string, 0, len(rev))
				for j := len(rev) - 1; j >= 0; j-- {
					out = append(out, rev[j])
				}
				return out
			}
			if visited[w] {
				continue
			}
			visited[w] = true
			nodes = append(nodes, pathNode{n: w, prev: i})
		}
	}
	return nil
}
