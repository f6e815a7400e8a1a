package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// MutexGuardAnalyzer checks `// guarded by <mu>` field annotations: a
// struct field so documented must only be read or written while the named
// sibling mutex is held. The check is a forward dataflow analysis over the
// function CFG — mu.Lock()/RLock() raise the lock state, mu.Unlock()/
// RUnlock() lower it, `defer mu.Unlock()` is an exit-time effect that
// leaves it raised — and a diagnostic fires only where the lock is
// *provably* not held on every path to the access (a maybe-held merge
// stays silent, so the analyzer errs toward missed bugs, not noise).
//
// Two companion conventions keep intra-procedural analysis honest:
//
//   - A function documented with "... must be called with <mu> held" (or
//     "requires <mu> held" / "caller must hold <mu>") starts in the held
//     state for the receiver's mutex.
//   - Values whose every reaching definition is a fresh composite literal
//     or new(T) are under construction and not yet shared, so their field
//     accesses are exempt (constructors need no lock).
var MutexGuardAnalyzer = &Analyzer{
	Name: "mutexguard",
	Doc: "flags accesses to struct fields annotated `// guarded by <mu>` on " +
		"paths where the named sibling mutex is provably not held; annotate " +
		"helper functions with \"must be called with <mu> held\" to model " +
		"caller-held locks",
	Run: perPackage(nil, runMutexGuard),
}

// guardedByRE extracts the sibling mutex name from a field comment.
var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// heldDocRE matches function doc sentences declaring a lock precondition.
// \s+ between the phrase words lets the convention survive comment
// rewrapping: "must be called\n// with r.mu held" still matches.
var heldDocRE = regexp.MustCompile(`(?i)(?:must\s+be\s+called\s+with|called\s+with|requires|caller\s+must\s+hold)\s+(?:\w+\.)?(\w+)(?:\s+(?:held|locked))?`)

// lock states form the lattice notHeld < held with maybeHeld as the join
// of distinct values.
type lockState int8

const (
	lockNotHeld lockState = iota
	lockHeld
	lockMaybeHeld
)

// lockMap maps a rendered mutex path (e.g. "m.mu") to its state. Absent
// keys are lockNotHeld.
type lockMap map[string]lockState

func (m lockMap) clone() lockMap {
	out := make(lockMap, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

type lockProblem struct {
	pass  *Pass
	entry lockMap
}

func (p *lockProblem) Entry() FlowState { return p.entry }

func (p *lockProblem) Branch(st FlowState, cond ast.Expr, taken bool) FlowState { return st }

func (p *lockProblem) Transfer(st FlowState, n ast.Node) FlowState {
	// Deferred unlocks run at function exit; they do not lower the state
	// at the point of the defer statement.
	if _, ok := n.(*ast.DeferStmt); ok {
		return st
	}
	cur := st.(lockMap)
	var out lockMap
	forEachLockOp(p.pass, n, func(path string, locks bool) {
		if out == nil {
			out = cur.clone()
		}
		if locks {
			out[path] = lockHeld
		} else {
			out[path] = lockNotHeld
		}
	})
	if out == nil {
		return cur
	}
	return out
}

func (p *lockProblem) Join(a, b FlowState) FlowState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	ma, mb := a.(lockMap), b.(lockMap)
	out := make(lockMap, len(ma))
	for k, v := range ma {
		if mb[k] == v {
			out[k] = v
		} else {
			out[k] = lockMaybeHeld
		}
	}
	for k, v := range mb {
		if _, ok := ma[k]; !ok {
			if v == lockNotHeld {
				continue
			}
			out[k] = lockMaybeHeld
		}
	}
	return out
}

func (p *lockProblem) Equal(a, b FlowState) bool {
	ma, mb := a.(lockMap), b.(lockMap)
	norm := func(m lockMap, k string) lockState { return m[k] }
	for k := range ma {
		if norm(ma, k) != norm(mb, k) {
			return false
		}
	}
	for k := range mb {
		if norm(ma, k) != norm(mb, k) {
			return false
		}
	}
	return true
}

// forEachLockOp invokes fn for every mutex Lock/Unlock call directly
// inside n (function literals excluded: they execute later).
func forEachLockOp(pass *Pass, n ast.Node, fn func(path string, locks bool)) {
	InspectNode(n, func(c ast.Node) bool {
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
		var locks bool
		switch sel.Sel.Name {
		case "Lock", "RLock":
			locks = true
		case "Unlock", "RUnlock":
			locks = false
		default:
			return true
		}
		if !isMutexType(pass.TypeOf(sel.X)) {
			return true
		}
		fn(types.ExprString(sel.X), locks)
		return true
	})
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// collectGuardedFields scans struct declarations for `// guarded by <mu>`
// annotations and returns field object -> mutex field name. Annotations
// naming a non-existent sibling are reported immediately.
func collectGuardedFields(pass *Pass) map[types.Object]string {
	guarded := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			names := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					names[id.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				mu := fieldGuardAnnotation(fld)
				if mu == "" {
					continue
				}
				if !names[mu] {
					pass.Reportf(fld.Pos(), "`guarded by %s` names no sibling field of this struct", mu)
					continue
				}
				for _, id := range fld.Names {
					if obj := pass.Info.Defs[id]; obj != nil {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

// fieldGuardAnnotation extracts the mutex name from a field's doc or line
// comment, or "" when unannotated.
func fieldGuardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// heldAtEntry derives the entry lock state from a function's doc comment
// and receiver: "must be called with mu held" raises recv.mu.
func heldAtEntry(fd *ast.FuncDecl) lockMap {
	entry := make(lockMap)
	if fd == nil || fd.Doc == nil {
		return entry
	}
	m := heldDocRE.FindStringSubmatch(fd.Doc.Text())
	if m == nil {
		return entry
	}
	mu := m[1]
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		entry[fd.Recv.List[0].Names[0].Name+"."+mu] = lockHeld
	} else {
		entry[mu] = lockHeld
	}
	return entry
}

func runMutexGuard(pass *Pass) error {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGuardedBody(pass, guarded, fd.Body, fd.Recv, fd.Type.Params, heldAtEntry(fd))
			// Function literals execute under their caller's unknown lock
			// regime; analyze each with a fresh not-held entry, which only
			// fires on literals that access guarded state without locking
			// themselves (the goroutine-closure bug class).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkGuardedBody(pass, guarded, lit.Body, nil, lit.Type.Params, make(lockMap))
				}
				return true
			})
		}
	}
	return nil
}

// checkGuardedBody runs the lock-state and reaching-defs analyses over one
// function body and reports guarded-field accesses at provably-unlocked
// points.
func checkGuardedBody(pass *Pass, guarded map[types.Object]string, body *ast.BlockStmt, recv, params *ast.FieldList, entry lockMap) {
	g := NewCFG(body)
	locks := Solve(g, &lockProblem{pass: pass, entry: entry})
	defs := ReachingDefs(pass.Info, g, recv, params)
	for _, blk := range g.Blocks {
		lstAny, ok := locks[blk]
		if !ok || lstAny == nil {
			continue // unreachable
		}
		lst := lstAny.(lockMap)
		dst := defs[blk]
		prob := &lockProblem{pass: pass}
		for _, n := range blk.Nodes {
			checkGuardedAccesses(pass, guarded, n, lst, dst)
			lst = prob.Transfer(lst, n).(lockMap)
			dst = StepDefs(pass.Info, dst, n)
		}
	}
}

// checkGuardedAccesses reports guarded-field selectors inside n whose
// protecting mutex is provably not held in state lst.
func checkGuardedAccesses(pass *Pass, guarded map[types.Object]string, n ast.Node, lst lockMap, dst Defs) {
	InspectNode(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false // analyzed separately with its own entry state
		}
		sel, ok := c.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[sel.Sel]
		if obj == nil {
			obj = pass.Info.Defs[sel.Sel]
		}
		mu, isGuarded := guarded[obj]
		if !isGuarded {
			return true
		}
		base := sel.X
		if locallyConstructed(pass, base, dst) {
			return true
		}
		muPath := types.ExprString(base) + "." + mu
		if lst[muPath] == lockNotHeld {
			pass.Reportf(sel.Sel.Pos(),
				"%s is guarded by %s, which is provably not held here; lock it or document the caller-held contract",
				types.ExprString(sel), muPath)
		}
		return true
	})
}

// locallyConstructed reports whether base is an identifier whose every
// reaching definition is a fresh allocation (composite literal, address of
// one, or new(T)): such a value has not escaped to other goroutines yet.
func locallyConstructed(pass *Pass, base ast.Expr, dst Defs) bool {
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return false
	}
	sites, ok := dst[obj]
	if !ok || len(sites) == 0 {
		return false
	}
	for _, s := range sites {
		if s.RHS == nil || !isFreshAlloc(s.RHS) {
			return false
		}
	}
	return true
}

func isFreshAlloc(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := e.X.(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}
