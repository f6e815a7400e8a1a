package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// HotPathAnalyzer enforces `//hipo:hotpath` contracts: every function
// reachable in the whole-program call graph from an annotated root must be
// free of the root's denied effects (by default wallclock, rand, and
// unknown — the determinism-breaking effects plus the conservative
// fallback for unresolvable calls). Each violation reports the offending
// function, a sample site of the denied effect, and the exact call chain
// from the root, so the finding is actionable without re-deriving the
// graph by hand.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc: "flags functions reachable from //hipo:hotpath roots whose effect " +
		"summary intersects the root's denied effects (default " +
		"wallclock,rand,unknown), with the offending call chain; annotate " +
		"unresolvable-but-clean calls with //hipo:pure <reason>",
	Run: runHotPath,
}

func runHotPath(prog *Program, report func(Diagnostic)) error {
	for _, pkg := range prog.Packages {
		ann := pkg.Annotations()
		if len(ann.HotPathRoots) == 0 {
			continue
		}
		// Deterministic root order: by declaration position.
		roots := make([]*ast.FuncDecl, 0, len(ann.HotPathRoots))
		for fd := range ann.HotPathRoots {
			roots = append(roots, fd)
		}
		sortFuncDecls(pkg, roots)
		for _, fd := range roots {
			node := prog.DeclNode(pkg, fd)
			if node == nil {
				continue
			}
			checkHotRoot(node, ann.HotPathRoots[fd], report)
		}
	}
	return nil
}

func sortFuncDecls(pkg *Package, decls []*ast.FuncDecl) {
	sortByPos := func(i, j int) bool {
		a := pkg.Fset.Position(decls[i].Pos())
		b := pkg.Fset.Position(decls[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	}
	for i := 1; i < len(decls); i++ {
		for j := i; j > 0 && sortByPos(j, j-1); j-- {
			decls[j], decls[j-1] = decls[j-1], decls[j]
		}
	}
}

// checkHotRoot searches the deny-effect-carrying region of the graph under
// root and reports every function whose own body introduces a denied
// effect, with the call chain from the root.
func checkHotRoot(root *FuncNode, deny EffectSet, report func(Diagnostic)) {
	if root.Summary.Intersect(deny) == 0 {
		return
	}
	type step struct {
		prev *FuncNode
		edge Edge
	}
	parent := make(map[*FuncNode]step)
	seen := map[*FuncNode]bool{root: true}
	queue := []*FuncNode{root}
	var offenders []*FuncNode
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.Direct.Intersect(deny) != 0 {
			offenders = append(offenders, n)
		}
		for _, e := range n.Edges {
			if e.Callee == nil || seen[e.Callee] {
				continue
			}
			// Only descend where a denied effect is reachable.
			if e.Callee.Summary.Intersect(deny) == 0 {
				continue
			}
			seen[e.Callee] = true
			parent[e.Callee] = step{prev: n, edge: e}
			queue = append(queue, e.Callee)
		}
	}
	for _, off := range offenders {
		bad := off.Direct.Intersect(deny)
		// Reconstruct root -> ... -> off.
		var rev []step
		for n := off; n != root; {
			st, ok := parent[n]
			if !ok {
				break
			}
			rev = append(rev, st)
			n = st.prev
		}
		chain := []string{root.Key}
		var related []RelatedPos
		for i := len(rev) - 1; i >= 0; i-- {
			st := rev[i]
			chain = append(chain, st.edge.Callee.Key)
			related = append(related, RelatedPos{
				Pos:     st.edge.Pos,
				Message: fmt.Sprintf("%s %s %s", st.prev.Key, st.edge.Kind, st.edge.Callee.Key),
			})
		}
		for _, e := range bad.Effects() {
			related = append(related, RelatedPos{
				Pos:     off.EffectSite[e],
				Message: e.Name() + " effect originates here",
			})
		}
		report(Diagnostic{
			Pos: root.Pos,
			Message: fmt.Sprintf("hot path root %s reaches denied effect(s) %s in %s (%s); chain: %s",
				root.Key, bad, off.Key, describeEffectSites(off, bad), strings.Join(chain, " -> ")),
			Related: related,
		})
	}
}

// describeEffectSites renders the sample sites of the denied effects a
// function's own body introduces.
func describeEffectSites(n *FuncNode, bad EffectSet) string {
	var parts []string
	for _, e := range bad.Effects() {
		at := shortPos(n.EffectSite[e])
		if e == EffUnknown && len(n.UnknownSites) > 0 {
			parts = append(parts, fmt.Sprintf("%s at %s: %s", e.Name(), at, n.UnknownSites[0].Reason))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s at %s", e.Name(), at))
	}
	return strings.Join(parts, "; ")
}

// shortPos renders a position as base-filename:line.
func shortPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
