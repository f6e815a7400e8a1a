package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// nanflowPackages are the geometry-core packages whose predicates and
// Diagnostic-bearing results the paper's sector/ring power model flows
// through: one NaN from an unclamped math.Acos or a 0/0 silently corrupts
// shadow intervals, candidate rings, and ultimately placements without
// crashing anything.
var nanflowPackages = []string{
	"hipo/internal/geom",
	"hipo/internal/power",
	"hipo/internal/radial",
	"hipo/internal/visibility",
	"hipo/internal/visindex",
	"hipo/internal/cells",
}

// NaNFlowAnalyzer tracks values that can become NaN or ±Inf through the
// function CFG and flags the three ways they enter geometry results:
//
//   - math.Acos/math.Asin of an expression not provably confined to
//     [-1, 1] — no inline clamp, and (via reaching definitions) no
//     clamped defining expression on any path. Carries a machine fix that
//     wraps the argument in math.Max(-1, math.Min(1, …)).
//   - floating-point division whose denominator is never compared against
//     anything on any CFG path to the division (a zero denominator yields
//     ±Inf or NaN that no later predicate can distinguish from geometry).
//   - ordered comparisons against a variable holding math.NaN() with no
//     math.IsNaN guard on any path — every such comparison is false, so
//     NaN sentinels silently win or lose min/max scans.
var NaNFlowAnalyzer = &Analyzer{
	Name: "nanflow",
	Doc: "flags NaN/Inf-capable values reaching geometry predicates: unclamped " +
		"math.Acos/Asin arguments (machine-fixable with a [-1,1] clamp), " +
		"divisions by never-guarded denominators, and comparisons against " +
		"math.NaN() sentinels without a math.IsNaN guard",
	Run: perPackage(func(path string) bool { return slices.Contains(nanflowPackages, path) }, runNaNFlow),
}

// guardFacts is the dataflow state: variables that some comparison has
// inspected (zero-guard evidence for divisions) and variables that have
// passed through math.IsNaN. The analysis is a may-union over paths:
// a diagnostic fires only when *no* path carries the guard.
type guardFacts struct {
	cmp   map[types.Object]bool
	isnan map[types.Object]bool
}

func (g *guardFacts) clone() *guardFacts {
	out := &guardFacts{
		cmp:   make(map[types.Object]bool, len(g.cmp)),
		isnan: make(map[types.Object]bool, len(g.isnan)),
	}
	for k := range g.cmp {
		out.cmp[k] = true
	}
	for k := range g.isnan {
		out.isnan[k] = true
	}
	return out
}

type guardProblem struct {
	pass *Pass
}

func (p *guardProblem) Entry() FlowState {
	return &guardFacts{cmp: make(map[types.Object]bool), isnan: make(map[types.Object]bool)}
}

func (p *guardProblem) Branch(st FlowState, cond ast.Expr, taken bool) FlowState { return st }

func (p *guardProblem) Transfer(st FlowState, n ast.Node) FlowState {
	cur := st.(*guardFacts)
	var out *guardFacts
	ensure := func() {
		if out == nil {
			out = cur.clone()
		}
	}
	InspectNode(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		switch c := c.(type) {
		case *ast.BinaryExpr:
			switch c.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
				ensure()
				for _, obj := range varIdents(p.pass, c) {
					out.cmp[obj] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok &&
				selectorPackage(p.pass, sel) == "math" &&
				(sel.Sel.Name == "IsNaN" || sel.Sel.Name == "IsInf") {
				ensure()
				for _, obj := range varIdents(p.pass, c) {
					out.isnan[obj] = true
					out.cmp[obj] = true
				}
			}
		case *ast.SwitchStmt:
			// The tag comparison inspects its operands just like an if.
			if c.Tag != nil {
				ensure()
				for _, obj := range varIdents(p.pass, c.Tag) {
					out.cmp[obj] = true
				}
			}
		}
		return true
	})
	if out == nil {
		return cur
	}
	return out
}

func (p *guardProblem) Join(a, b FlowState) FlowState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	ga, gb := a.(*guardFacts), b.(*guardFacts)
	out := ga.clone()
	for k := range gb.cmp {
		out.cmp[k] = true
	}
	for k := range gb.isnan {
		out.isnan[k] = true
	}
	return out
}

func (p *guardProblem) Equal(a, b FlowState) bool {
	ga, gb := a.(*guardFacts), b.(*guardFacts)
	if len(ga.cmp) != len(gb.cmp) || len(ga.isnan) != len(gb.isnan) {
		return false
	}
	for k := range ga.cmp {
		if !gb.cmp[k] {
			return false
		}
	}
	for k := range ga.isnan {
		if !gb.isnan[k] {
			return false
		}
	}
	return true
}

// varIdents collects the distinct variable objects referenced in e,
// excluding constants, package names, and function names.
func varIdents(pass *Pass, e ast.Node) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(e, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj == nil || seen[obj] {
			return true
		}
		if _, ok := obj.(*types.Var); !ok {
			return true
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}

func runNaNFlow(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkNaNFlowBody(pass, fd.Body, fd.Recv, fd.Type.Params)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkNaNFlowBody(pass, lit.Body, nil, lit.Type.Params)
				}
				return true
			})
		}
	}
	return nil
}

func checkNaNFlowBody(pass *Pass, body *ast.BlockStmt, recv, params *ast.FieldList) {
	g := NewCFG(body)
	prob := &guardProblem{pass: pass}
	guards := Solve(g, prob)
	defs := ReachingDefs(pass.Info, g, recv, params)
	for _, blk := range g.Blocks {
		gstAny, ok := guards[blk]
		if !ok || gstAny == nil {
			continue
		}
		gst := gstAny.(*guardFacts)
		dst := defs[blk]
		for _, n := range blk.Nodes {
			checkNaNFlowNode(pass, n, gst, dst)
			gst = prob.Transfer(gst, n).(*guardFacts)
			dst = StepDefs(pass.Info, dst, n)
		}
	}
}

func checkNaNFlowNode(pass *Pass, n ast.Node, gst *guardFacts, dst Defs) {
	InspectNode(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		switch c := c.(type) {
		case *ast.CallExpr:
			checkInverseTrig(pass, c, dst)
		case *ast.BinaryExpr:
			switch c.Op {
			case token.QUO:
				checkDivision(pass, c, gst, dst)
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				checkNaNSentinelCompare(pass, c, gst, dst)
			}
		}
		return true
	})
}

// checkInverseTrig flags math.Acos/Asin whose argument is not provably in
// [-1, 1], attaching a clamp fix.
func checkInverseTrig(pass *Pass, call *ast.CallExpr, dst Defs) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || selectorPackage(pass, sel) != "math" || len(call.Args) != 1 {
		return
	}
	if sel.Sel.Name != "Acos" && sel.Sel.Name != "Asin" {
		return
	}
	arg := call.Args[0]
	if clampedToUnit(pass, arg, dst) {
		return
	}
	fix := pass.ReplaceNode(
		"clamp the argument to [-1, 1]",
		arg,
		"math.Max(-1, math.Min(1, "+pass.NodeText(arg)+"))",
	)
	pass.ReportfFix(call.Pos(), fix,
		"argument of math.%s is not provably in [-1, 1]; rounding error past ±1 yields NaN, which silently poisons every angular predicate downstream — clamp it",
		sel.Sel.Name)
}

// clampedToUnit reports whether e is visibly confined to [-1, 1]: a
// constant in range, an expression routed through a clamp (a *clamp*-named
// helper or a math.Max/math.Min combination), or an identifier whose every
// reaching definition is itself clamped.
func clampedToUnit(pass *Pass, e ast.Expr, dst Defs) bool {
	if v, ok := constFloat(pass, e); ok {
		return v >= -1 && v <= 1
	}
	if containsClampCall(pass, e) {
		return true
	}
	if id, ok := e.(*ast.Ident); ok && dst != nil {
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj == nil {
			return false
		}
		sites, ok := dst[obj]
		if !ok || len(sites) == 0 {
			return false
		}
		for _, s := range sites {
			if s.RHS == nil || !clampedToUnit(pass, s.RHS, nil) {
				return false
			}
		}
		return true
	}
	return false
}

func containsClampCall(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return !found
		}
		name := calleeName(call)
		if strings.Contains(strings.ToLower(name), "clamp") {
			found = true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
			selectorPackage(pass, sel) == "math" &&
			(sel.Sel.Name == "Max" || sel.Sel.Name == "Min") {
			found = true
		}
		return !found
	})
	return found
}

// checkDivision flags float divisions whose denominator involves variables
// that no comparison inspects on any path from function entry. One level
// of definition indirection counts: a guard on xs covers n := len(xs).
func checkDivision(pass *Pass, be *ast.BinaryExpr, gst *guardFacts, dst Defs) {
	t := pass.TypeOf(be)
	if t == nil || !isFloat(t) {
		return
	}
	// Constant denominators (2, math.Pi, 2*math.Pi…) cannot be zero unless
	// written as zero, which the compiler rejects for constants.
	if tv, ok := pass.Info.Types[be.Y]; ok && tv.Value != nil {
		return
	}
	idents := varIdents(pass, be.Y)
	if len(idents) == 0 {
		return
	}
	for _, obj := range idents {
		if gst.cmp[obj] {
			return
		}
		// Indirection: a guard on any variable feeding obj's definitions.
		if dst != nil {
			for _, s := range dst[obj] {
				if s.RHS == nil {
					continue
				}
				// All-constant definitions cannot be zero at run time
				// unless literally zero.
				if v, ok := constFloat(pass, s.RHS); ok && v != 0 {
					return
				}
				for _, dep := range varIdents(pass, s.RHS) {
					if gst.cmp[dep] {
						return
					}
				}
			}
		}
	}
	pass.Reportf(be.OpPos,
		"denominator %s is never compared against anything on any path to this division; a zero here turns the result into ±Inf/NaN that downstream predicates cannot distinguish from geometry",
		pass.NodeText(be.Y))
}

// checkNaNSentinelCompare flags ordered comparisons whose operand may hold
// math.NaN() (per reaching definitions) with no math.IsNaN guard on any
// path: the comparison is unconditionally false for NaN, so sentinel
// initializations silently bias min/max scans.
func checkNaNSentinelCompare(pass *Pass, be *ast.BinaryExpr, gst *guardFacts, dst Defs) {
	if dst == nil {
		return
	}
	for _, operand := range []ast.Expr{be.X, be.Y} {
		id, ok := operand.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			continue
		}
		if gst.isnan[obj] {
			continue
		}
		for _, s := range dst[obj] {
			if s.RHS != nil && isNaNCall(pass, s.RHS) {
				pass.Reportf(be.OpPos,
					"%s may hold math.NaN() here (ordered comparisons with NaN are always false); guard the sentinel with math.IsNaN first",
					id.Name)
				return
			}
		}
	}
}

// constFloat returns e's compile-time numeric value, when it has one.
func constFloat(pass *Pass, e ast.Expr) (float64, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		v, _ := constant.Float64Val(tv.Value)
		return v, true
	}
	return 0, false
}

func isNaNCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && selectorPackage(pass, sel) == "math" && sel.Sel.Name == "NaN"
}
