package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program call graph and the bottom-up effect
// summaries the interprocedural analyzers (hotpath, lockorder, ctxprop)
// run on. The design constraints, in order:
//
//  1. Soundness for the effects that matter. A call the builder cannot
//     resolve to any declaration degrades to the EffUnknown effect — the
//     conservative top — rather than being silently dropped. The only
//     escape hatch is an explicit `//hipo:pure <reason>` annotation.
//  2. No cross-package type identity. Packages are type-checked
//     independently (and, in cmd/hipolint, concurrently), so a types.Object
//     from one package never equals its counterpart seen from another.
//     Functions are therefore keyed by canonical strings
//     ("hipo/internal/pdcs.Extract", "hipo/internal/jobs.(Manager).run",
//     "...Extract$1" for literals, "...StartStage$ret" for call results)
//     and interface dispatch widens by method name plus fully-qualified
//     rendered signature instead of types.Implements.
//  3. Over-approximation that stays useful. Three rules keep common
//     higher-order patterns out of the unknown bucket:
//
//     - caller folds arguments: every call site resolves its func-typed
//       arguments and charges their effects to the caller; a callee
//       invoking its own func-typed parameter charges nothing. This models
//       schedule.RunPool(n, w, fn), sort.Slice(x, less), and friends
//       without tracking closures through parameters.
//     - value tracking: calls through local or package-level func variables
//       resolve through their visible definitions (assignment chains,
//       package var initializers), so `end := tr.StartStage(...); end()`
//       and `var nop = func(){}` resolve precisely.
//     - ret-nodes: calling the result of a function F resolves to a
//       synthetic node F$ret whose callees are the functions F can return.
//       External results are unknown unless listed in externalRetClean.
//
// External (non-program) functions are modeled by the enumerated effect
// table in effects.go and otherwise assumed effect-free, mirroring how the
// per-package analyzers detect exactly those selectors. Interface calls
// widen to every program-declared concrete method with a matching name and
// signature; external implementations are assumed effect-free.

// FuncNode is one function in the program call graph: a declared function
// or method, a function literal, or a synthetic $ret node standing for
// "whatever the base function returns".
type FuncNode struct {
	// Key is the canonical identity: "pkgpath.Name",
	// "pkgpath.(RecvType).Method", "parentKey$N" for the N-th literal
	// inside parent, or "baseKey$ret" for a result node.
	Key string
	// Pkg is the package the node's source lives in (nil only never; $ret
	// nodes inherit their base's package).
	Pkg *Package
	// Decl is the declaration for named functions; Lit the literal for
	// closures. Both are nil on $ret nodes.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Parent is the enclosing function node for literals.
	Parent *FuncNode
	// Pos locates the function for diagnostics.
	Pos token.Position

	// Direct is the effect set of the function's own body, external calls
	// included, program calls excluded. Summary adds everything reachable
	// through Edges, computed bottom-up over SCCs.
	Direct  EffectSet
	Summary EffectSet
	// EffectSite records a sample source position per direct effect, for
	// diagnostics ("time.Now at file:line").
	EffectSite [NumEffects]token.Position
	// UnknownSites lists the unresolvable calls that contributed EffUnknown.
	UnknownSites []UnknownSite

	// Edges are the resolved outgoing calls in source order.
	Edges []Edge

	// Acquires maps canonical lock keys (see canonicalLockKey) this body
	// locks directly to a sample acquisition site; AcquiresAll adds every
	// lock acquired transitively through Edges.
	Acquires    map[string]token.Position
	AcquiresAll map[string]token.Position
}

// String returns the canonical key.
func (n *FuncNode) String() string { return n.Key }

// UnknownSite is one call the builder had to give up on.
type UnknownSite struct {
	Pos    token.Position
	Reason string
}

// Edge is one resolved call from a function to a callee node.
type Edge struct {
	Callee *FuncNode
	Pos    token.Position
	// Kind describes how control transfers, used verbatim in call-chain
	// renderings: "calls", "spawns", "calls via interface", "passes to",
	// "returns".
	Kind string
}

// Program is the whole-program view: every loaded package plus the call
// graph with per-function effect summaries.
type Program struct {
	Packages []*Package
	Funcs    map[string]*FuncNode

	keys    []string               // sorted node keys, for deterministic walks
	methods map[string][]*FuncNode // name + "|" + rendered sig -> concrete methods
	ctxs    map[*Package]*pkgContext

	// taint caches the whole-program taint engine; access through Taint().
	taint *TaintEngine
}

// SortedFuncs returns every node ordered by key.
func (p *Program) SortedFuncs() []*FuncNode {
	out := make([]*FuncNode, 0, len(p.keys))
	for _, k := range p.keys {
		out = append(out, p.Funcs[k])
	}
	return out
}

// DeclNode returns the node of a function declaration in pkg, or nil.
func (p *Program) DeclNode(pkg *Package, fd *ast.FuncDecl) *FuncNode {
	ctx := p.ctxs[pkg]
	if ctx == nil {
		return nil
	}
	return ctx.decls[fd]
}

// pkgContext is the per-package state the builder resolves against.
type pkgContext struct {
	pkg *Package
	// defs maps func-typed objects to their visible defining expressions; a
	// nil entry marks a definition that cannot be tracked (tuple assignment,
	// range element), poisoning the object to unknown.
	defs map[types.Object][]ast.Expr
	// params holds func-typed parameters (their calls are charged at the
	// caller via argument folding).
	params map[types.Object]bool
	// lits maps every function literal in the package to its node.
	decls map[*ast.FuncDecl]*FuncNode
	lits  map[*ast.FuncLit]*FuncNode
	// mask removes effects the package is annotated to allow (wallclock for
	// //hipo:allow-wallclock), so instrumentation layers do not poison the
	// summaries of hot callers.
	mask EffectSet
}

// BuildProgram constructs the call graph over the loaded packages and
// computes effect summaries and transitive lock-acquisition sets. The
// result is deterministic: packages are processed in import-path order and
// all node walks follow sorted keys or source order.
func BuildProgram(pkgs []*Package) *Program {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	prog := &Program{
		Packages: sorted,
		Funcs:    make(map[string]*FuncNode),
		methods:  make(map[string][]*FuncNode),
		ctxs:     make(map[*Package]*pkgContext),
	}
	b := &builder{prog: prog}
	for _, pkg := range sorted {
		b.createNodes(pkg)
	}
	b.indexMethods()
	for _, pkg := range sorted {
		b.analyzePackage(prog.ctxs[pkg])
	}
	b.resolveRetNodes()
	b.finishKeys()
	b.propagate()
	return prog
}

type builder struct {
	prog *Program
	// retPending queues $ret nodes whose base's return expressions still
	// need resolving; resolution may create further $ret nodes.
	retPending []*FuncNode
	retDone    map[string]bool
}

// insertNode registers a node under key, de-duplicating collisions (every
// `func init()` shares the spelling "pkg.init") with a #N suffix.
func (b *builder) insertNode(key string, n *FuncNode) {
	base := key
	for i := 2; ; i++ {
		if _, exists := b.prog.Funcs[key]; !exists {
			break
		}
		key = fmt.Sprintf("%s#%d", base, i)
	}
	n.Key = key
	n.Acquires = make(map[string]token.Position)
	b.prog.Funcs[key] = n
}

// createNodes adds a node for every declared function and function literal
// of pkg and records the package's value-definition environment.
func (b *builder) createNodes(pkg *Package) {
	ctx := &pkgContext{
		pkg:    pkg,
		defs:   make(map[types.Object][]ast.Expr),
		params: make(map[types.Object]bool),
		decls:  make(map[*ast.FuncDecl]*FuncNode),
		lits:   make(map[*ast.FuncLit]*FuncNode),
	}
	if pkg.Annotations().AllowWallclock != "" {
		ctx.mask = EffNone.With(EffWallClock)
	}
	b.prog.ctxs[pkg] = ctx
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				node := &FuncNode{Pkg: pkg, Decl: decl, Pos: pkg.Fset.Position(decl.Name.Pos())}
				b.insertNode(declKey(pkg, decl), node)
				ctx.decls[decl] = node
				if decl.Body != nil {
					b.createLitNodes(ctx, node, decl.Body)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, val := range vs.Values {
						name := "init"
						if i < len(vs.Names) && len(vs.Values) == len(vs.Names) {
							name = vs.Names[i].Name
						}
						b.createLitNodes(ctx, &FuncNode{
							Key: pkg.ImportPath + "." + name,
							Pkg: pkg,
						}, val)
					}
				}
			}
		}
		collectDefs(ctx, f)
	}
}

// createLitNodes walks root creating a node for every function literal,
// numbered depth-first under the enclosing named function's key. The
// literal's parent is the innermost enclosing function node.
func (b *builder) createLitNodes(ctx *pkgContext, root *FuncNode, n ast.Node) {
	counter := 0
	var walk func(parent *FuncNode, n ast.Node)
	walk = func(parent *FuncNode, n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			counter++
			node := &FuncNode{
				Pkg:    ctx.pkg,
				Lit:    lit,
				Parent: parent,
				Pos:    ctx.pkg.Fset.Position(lit.Pos()),
			}
			b.insertNode(fmt.Sprintf("%s$%d", root.Key, counter), node)
			ctx.lits[lit] = node
			walk(node, lit.Body)
			return false
		})
	}
	walk(root, n)
}

// declKey renders the canonical key of a function declaration.
func declKey(pkg *Package, fd *ast.FuncDecl) string {
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		if key := funcKeyOf(obj); key != "" {
			return key
		}
	}
	return pkg.ImportPath + "." + fd.Name.Name
}

// funcKeyOf renders the canonical key of a function object, or "" for
// objects that cannot be keyed (interface methods — resolved by widening —
// and builtins).
func funcKeyOf(obj *types.Func) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		if types.IsInterface(recv.Type()) {
			return ""
		}
		rt := namedRecvType(recv.Type())
		if rt == "" {
			return ""
		}
		return pkg.Path() + ".(" + rt + ")." + obj.Name()
	}
	return pkg.Path() + "." + obj.Name()
}

// renderSig renders a signature with fully-qualified parameter and result
// types, the identity used for cross-package interface widening.
func renderSig(sig *types.Signature) string {
	q := func(p *types.Package) string { return p.Path() }
	render := func(t *types.Tuple) string {
		parts := make([]string, 0, t.Len())
		for i := 0; i < t.Len(); i++ {
			parts = append(parts, types.TypeString(t.At(i).Type(), q))
		}
		return strings.Join(parts, ",")
	}
	return "(" + render(sig.Params()) + ")(" + render(sig.Results()) + ")"
}

// indexMethods builds the name+signature index interface calls widen over.
func (b *builder) indexMethods() {
	for _, pkg := range b.prog.Packages {
		ctx := b.prog.ctxs[pkg]
		for fd, node := range ctx.decls {
			if fd.Recv == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok {
				continue
			}
			k := obj.Name() + "|" + renderSig(sig)
			b.prog.methods[k] = append(b.prog.methods[k], node)
		}
	}
	for k := range b.prog.methods {
		ms := b.prog.methods[k]
		sort.Slice(ms, func(i, j int) bool { return ms[i].Key < ms[j].Key })
	}
}

// collectDefs records the visible definitions of every func-typed object in
// file f: package var initializers, := and = assignments, and the
// untrackable forms (tuple assignments, range elements) that poison an
// object to unknown. Parameters of functions and literals are recorded
// separately — their calls are charged at call sites via argument folding.
func collectDefs(ctx *pkgContext, f *ast.File) {
	info := ctx.pkg.Info
	funcTyped := func(obj types.Object) bool {
		if obj == nil || obj.Type() == nil {
			return false
		}
		_, ok := obj.Type().Underlying().(*types.Signature)
		return ok
	}
	addDef := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if !funcTyped(obj) {
			return
		}
		ctx.defs[obj] = append(ctx.defs[obj], rhs)
	}
	markParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			for _, name := range fld.Names {
				if obj := info.Defs[name]; funcTyped(obj) {
					ctx.params[obj] = true
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			markParams(n.Recv)
			markParams(n.Type.Params)
		case *ast.FuncLit:
			markParams(n.Type.Params)
		case *ast.ValueSpec:
			if len(n.Values) == len(n.Names) {
				for i, name := range n.Names {
					addDef(name, n.Values[i])
				}
			} else if len(n.Values) > 0 {
				// Tuple-typed var spec: untrackable.
				for _, name := range n.Names {
					addDef(name, nil)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == len(n.Lhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						addDef(id, n.Rhs[i])
					}
				}
			} else {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						addDef(id, nil)
					}
				}
			}
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{n.Key, n.Value} {
				if id, ok := v.(*ast.Ident); ok {
					addDef(id, nil)
				}
			}
		}
		return true
	})
}

// analyzePackage computes Direct effects, edges, and lock acquisitions for
// every node of one package.
func (b *builder) analyzePackage(ctx *pkgContext) {
	keys := make([]string, 0, len(ctx.decls)+len(ctx.lits))
	nodes := make(map[string]*FuncNode, len(ctx.decls)+len(ctx.lits))
	for _, n := range ctx.decls {
		keys = append(keys, n.Key)
		nodes[n.Key] = n
	}
	for _, n := range ctx.lits {
		keys = append(keys, n.Key)
		nodes[n.Key] = n
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.analyzeBody(ctx, nodes[k])
	}
}

// analyzeBody walks one function's own statements (nested literals are
// their own nodes) resolving calls and recording intrinsic effects.
func (b *builder) analyzeBody(ctx *pkgContext, node *FuncNode) {
	var body *ast.BlockStmt
	switch {
	case node.Decl != nil:
		body = node.Decl.Body
	case node.Lit != nil:
		body = node.Lit.Body
	}
	if body == nil {
		return
	}
	a := &funcAnalysis{b: b, ctx: ctx, node: node}
	kinds := make(map[*ast.CallExpr]string)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate node
		}
		a.addDirect(intrinsicNodeEffects(ctx.pkg.Info, n), n.Pos())
		switch n := n.(type) {
		case *ast.GoStmt:
			kinds[n.Call] = "spawns"
		case *ast.CallExpr:
			a.call(n, kinds[n])
		}
		return true
	})
}

// funcAnalysis is the per-function resolution state.
type funcAnalysis struct {
	b    *builder
	ctx  *pkgContext
	node *FuncNode
}

// addDirect folds an effect set into the node's Direct effects, applying
// the package mask and recording first-seen sites.
func (a *funcAnalysis) addDirect(eff EffectSet, at token.Pos) {
	eff &^= a.ctx.mask
	if eff == 0 {
		return
	}
	pos := a.ctx.pkg.Fset.Position(at)
	for _, e := range eff.Effects() {
		if !a.node.Direct.Has(e) {
			a.node.EffectSite[e] = pos
		}
	}
	a.node.Direct = a.node.Direct.Union(eff)
}

// unknown degrades a call site to EffUnknown unless a //hipo:pure
// annotation covers its line.
func (a *funcAnalysis) unknown(at token.Pos, reason string) {
	pos := a.ctx.pkg.Fset.Position(at)
	if lines := a.ctx.pkg.Annotations().PureLines[pos.Filename]; lines != nil && lines[pos.Line] {
		return
	}
	if !a.node.Direct.Has(EffUnknown) {
		a.node.EffectSite[EffUnknown] = pos
	}
	a.node.Direct = a.node.Direct.With(EffUnknown)
	a.node.UnknownSites = append(a.node.UnknownSites, UnknownSite{Pos: pos, Reason: reason})
}

// edge adds a resolved call edge.
func (a *funcAnalysis) edge(callee *FuncNode, at token.Pos, kind string) {
	if callee == nil {
		return
	}
	a.node.Edges = append(a.node.Edges, Edge{
		Callee: callee,
		Pos:    a.ctx.pkg.Fset.Position(at),
		Kind:   kind,
	})
}

// attach folds a resolution into the node at a call site.
func (a *funcAnalysis) attach(r resolution, at token.Pos, kind string, reason string) {
	if r.iface && kind == "calls" {
		kind = "calls via interface"
	}
	for _, t := range r.targets {
		a.edge(t, at, kind)
	}
	a.addDirect(r.eff, at)
	if r.unknown {
		a.unknown(at, reason)
	}
}

// call resolves one call expression. kind is "" for plain calls and
// "spawns" for go statements.
func (a *funcAnalysis) call(call *ast.CallExpr, kind string) {
	if kind == "" {
		kind = "calls"
	}
	info := a.ctx.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fun := unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.FuncLit:
		a.edge(a.ctx.lits[fun], call.Pos(), kind)
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			if isBuiltinAlloc(obj.Name()) {
				a.addDirect(EffNone.With(EffAlloc), call.Pos())
			}
		case *types.Func:
			a.attach(a.b.resolveFuncObj(obj), call.Pos(), kind, "")
		case *types.Var:
			r := resolveValueObj(a.b, a.ctx, obj, nil)
			a.attach(r, call.Pos(), kind,
				"call through func value "+fun.Name+" with untrackable definition")
		}
	case *ast.SelectorExpr:
		a.selectorCall(fun, call, kind)
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Either a generic instantiation f[T](...) or an indexed func value
		// fs[i](...).
		var x ast.Expr
		if ix, ok := fun.(*ast.IndexExpr); ok {
			x = ix.X
		} else {
			x = fun.(*ast.IndexListExpr).X
		}
		if obj := usedFunc(info, unparen(x)); obj != nil {
			a.attach(a.b.resolveFuncObj(obj), call.Pos(), kind, "")
			break
		}
		a.unknown(call.Pos(), "call through indexed function value")
	default:
		a.unknown(call.Pos(), "call through computed function value")
	}
	a.foldArgs(call)
	a.recordLockOp(call)
}

// usedFunc extracts the *types.Func an identifier or selector refers to.
func usedFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[e].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// selectorCall resolves x.f(...) forms: package-qualified calls, method
// calls (static or interface-widened), method expressions, and calls
// through func-valued struct fields.
func (a *funcAnalysis) selectorCall(sel *ast.SelectorExpr, call *ast.CallExpr, kind string) {
	info := a.ctx.pkg.Info
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			switch obj := info.Uses[sel.Sel].(type) {
			case *types.Func:
				a.attach(a.b.resolveFuncObj(obj), call.Pos(), kind, "")
			case *types.Var:
				// Another package's func-typed var: its definitions are not
				// in this package's environment.
				a.unknown(call.Pos(), "call through package-level func value "+id.Name+"."+sel.Sel.Name)
			}
			return
		}
	}
	selInfo := info.Selections[sel]
	if selInfo == nil {
		// Method expression T.M spelled through a type name.
		if obj := usedFunc(info, sel); obj != nil {
			a.attach(a.b.resolveFuncObj(obj), call.Pos(), kind, "")
			return
		}
		a.unknown(call.Pos(), "unresolved selector call "+sel.Sel.Name)
		return
	}
	switch selInfo.Kind() {
	case types.MethodVal, types.MethodExpr:
		if obj, ok := selInfo.Obj().(*types.Func); ok {
			if types.IsInterface(selInfo.Recv()) {
				a.attach(resolution{targets: a.b.ifaceCandidates(obj), iface: true}, call.Pos(), kind, "")
				return
			}
			a.attach(a.b.resolveFuncObj(obj), call.Pos(), kind, "")
			return
		}
		a.unknown(call.Pos(), "unresolved method call "+sel.Sel.Name)
	case types.FieldVal:
		a.unknown(call.Pos(), "call through func-valued field "+sel.Sel.Name)
	}
}

// foldArgs charges the effects of func-typed arguments to the caller — the
// dual of treating callee parameter calls as free. This models higher-order
// externals (sort.Slice, schedule.RunPool) without interprocedural closure
// tracking: whoever constructs and hands over a closure pays for it.
func (a *funcAnalysis) foldArgs(call *ast.CallExpr) {
	info := a.ctx.pkg.Info
	for _, arg := range call.Args {
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		if _, isSig := tv.Type.Underlying().(*types.Signature); !isSig {
			continue
		}
		r := resolveValueExpr(a.b, a.ctx, unparen(arg), nil)
		a.attach(r, arg.Pos(), "passes to", "untrackable func value passed as argument")
	}
}

// recordLockOp canonicalizes direct sync.Mutex/RWMutex acquisitions for
// the lock-ordering analysis.
func (a *funcAnalysis) recordLockOp(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
		return
	}
	if !isMutexType(typeOfExpr(a.ctx.pkg.Info, sel.X)) {
		return
	}
	key := canonicalLockKey(a.ctx.pkg, sel.X)
	if key == "" {
		return
	}
	if _, seen := a.node.Acquires[key]; !seen {
		a.node.Acquires[key] = a.ctx.pkg.Fset.Position(call.Pos())
	}
}

// typeOfExpr is Pass.TypeOf without a Pass.
func typeOfExpr(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// canonicalLockKey names a mutex independent of the variable path used to
// reach it: a struct-field mutex is "pkgpath.TypeName.field" (the type that
// declares the field), a package-level mutex is "pkgpath.varname". Local
// mutexes return "" — they cannot participate in a global order.
func canonicalLockKey(pkg *Package, mu ast.Expr) string {
	switch mu := unparen(mu).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[mu]
		if obj == nil {
			return ""
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return ""
	case *ast.SelectorExpr:
		base := typeOfExpr(pkg.Info, mu.X)
		if base == nil {
			return ""
		}
		if ptr, ok := base.(*types.Pointer); ok {
			base = ptr.Elem()
		}
		named, ok := base.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + mu.Sel.Name
	}
	return ""
}

// resolution is the outcome of resolving a function reference or value.
type resolution struct {
	targets []*FuncNode
	eff     EffectSet
	// unknown marks a definition that could not be resolved.
	unknown bool
	// iface marks targets found by interface widening.
	iface bool
	// external, when non-nil, is the external function the value refers to
	// (needed by ret-node resolution to consult externalRetClean).
	external *types.Func
}

func (r *resolution) merge(o resolution) {
	r.targets = append(r.targets, o.targets...)
	r.eff = r.eff.Union(o.eff)
	r.unknown = r.unknown || o.unknown
	r.iface = r.iface || o.iface
	if r.external == nil {
		r.external = o.external
	}
}

// resolveFuncObj resolves a direct reference to a function object: a
// program node, an interface method (widened), or an external function
// modeled by the effect table.
func (b *builder) resolveFuncObj(obj *types.Func) resolution {
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return resolution{targets: b.ifaceCandidates(obj), iface: true}
	}
	if key := funcKeyOf(obj); key != "" {
		if n := b.prog.Funcs[key]; n != nil {
			return resolution{targets: []*FuncNode{n}}
		}
	}
	recv := ""
	if sig != nil && sig.Recv() != nil {
		recv = namedRecvType(sig.Recv().Type())
	}
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	return resolution{eff: externalEffects(pkgPath, recv, obj.Name()), external: obj}
}

// ifaceCandidates returns every program-declared concrete method matching
// the interface method's name and fully-qualified signature. External
// implementations are assumed effect-free.
func (b *builder) ifaceCandidates(obj *types.Func) []*FuncNode {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return b.prog.methods[obj.Name()+"|"+renderSig(sig)]
}

// resolveValueObj resolves calls through a func-typed variable by chasing
// its visible definitions. Parameters resolve to nothing (the caller
// already folded the argument); objects with no visible or an untrackable
// definition are unknown. visited breaks definition cycles.
func resolveValueObj(b *builder, ctx *pkgContext, obj types.Object, visited map[types.Object]bool) resolution {
	if ctx.params[obj] {
		return resolution{}
	}
	if visited[obj] {
		return resolution{}
	}
	if visited == nil {
		visited = make(map[types.Object]bool)
	}
	visited[obj] = true
	defs := ctx.defs[obj]
	if len(defs) == 0 {
		return resolution{unknown: true}
	}
	var r resolution
	for _, def := range defs {
		if def == nil {
			r.unknown = true
			continue
		}
		r.merge(resolveValueExpr(b, ctx, def, visited))
	}
	return r
}

// resolveValueExpr resolves a func-typed expression to the nodes it may
// evaluate to (plus external effects for direct external references —
// referencing is treated as calling, since the value exists to be called).
func resolveValueExpr(b *builder, ctx *pkgContext, e ast.Expr, visited map[types.Object]bool) resolution {
	info := ctx.pkg.Info
	switch e := unparen(e).(type) {
	case *ast.FuncLit:
		if n := ctx.lits[e]; n != nil {
			return resolution{targets: []*FuncNode{n}}
		}
		return resolution{unknown: true}
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			return b.resolveFuncObj(obj)
		case *types.Var:
			return resolveValueObj(b, ctx, obj, visited)
		case *types.Nil:
			return resolution{}
		}
		if e.Name == "nil" {
			return resolution{}
		}
		return resolution{unknown: true}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if obj, ok := info.Uses[e.Sel].(*types.Func); ok {
					return b.resolveFuncObj(obj)
				}
				return resolution{unknown: true}
			}
		}
		if selInfo := info.Selections[e]; selInfo != nil {
			switch selInfo.Kind() {
			case types.MethodVal, types.MethodExpr:
				if obj, ok := selInfo.Obj().(*types.Func); ok {
					if types.IsInterface(selInfo.Recv()) {
						return resolution{targets: b.ifaceCandidates(obj), iface: true}
					}
					return b.resolveFuncObj(obj)
				}
			}
			return resolution{unknown: true}
		}
		if obj := usedFunc(info, e); obj != nil {
			return b.resolveFuncObj(obj)
		}
		return resolution{unknown: true}
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: resolve the converted value.
			if len(e.Args) == 1 {
				return resolveValueExpr(b, ctx, e.Args[0], visited)
			}
			return resolution{unknown: true}
		}
		callee := resolveCalleeForRet(b, ctx, e, visited)
		var r resolution
		r.unknown = callee.unknown
		for _, t := range callee.targets {
			r.targets = append(r.targets, b.retNodeFor(t))
		}
		if callee.external != nil {
			extKey := ""
			if callee.external.Pkg() != nil {
				extKey = callee.external.Pkg().Path() + "." + callee.external.Name()
			}
			if !externalRetClean[extKey] {
				r.unknown = true
			}
		}
		return r
	}
	return resolution{unknown: true}
}

// resolveCalleeForRet resolves the callee of a call whose *result* is being
// tracked as a func value.
func resolveCalleeForRet(b *builder, ctx *pkgContext, call *ast.CallExpr, visited map[types.Object]bool) resolution {
	info := ctx.pkg.Info
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if n := ctx.lits[fun]; n != nil {
			return resolution{targets: []*FuncNode{n}}
		}
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return b.resolveFuncObj(obj)
		case *types.Var:
			return resolveValueObj(b, ctx, obj, visited)
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
					return b.resolveFuncObj(obj)
				}
				return resolution{unknown: true}
			}
		}
		if selInfo := info.Selections[fun]; selInfo != nil {
			if obj, ok := selInfo.Obj().(*types.Func); ok {
				if types.IsInterface(selInfo.Recv()) {
					return resolution{targets: b.ifaceCandidates(obj), iface: true}
				}
				return b.resolveFuncObj(obj)
			}
		}
	}
	return resolution{unknown: true}
}

// retNodeFor returns (creating if needed) the synthetic node standing for
// "call whatever base returns", queueing it for return-expression
// resolution.
func (b *builder) retNodeFor(base *FuncNode) *FuncNode {
	key := base.Key + "$ret"
	if n := b.prog.Funcs[key]; n != nil {
		return n
	}
	n := &FuncNode{Pkg: base.Pkg, Parent: base, Pos: base.Pos}
	b.insertNode(key, n)
	b.retPending = append(b.retPending, n)
	return n
}

// resolveRetNodes resolves each pending $ret node's callees from its base
// function's return expressions; resolution may enqueue further $ret nodes.
func (b *builder) resolveRetNodes() {
	if b.retDone == nil {
		b.retDone = make(map[string]bool)
	}
	for len(b.retPending) > 0 {
		n := b.retPending[0]
		b.retPending = b.retPending[1:]
		if b.retDone[n.Key] {
			continue
		}
		b.retDone[n.Key] = true
		b.resolveRetNode(n)
	}
}

func (b *builder) resolveRetNode(n *FuncNode) {
	base := n.Parent
	ctx := b.prog.ctxs[base.Pkg]
	var body *ast.BlockStmt
	var results *ast.FieldList
	switch {
	case base.Decl != nil:
		body = base.Decl.Body
		results = base.Decl.Type.Results
	case base.Lit != nil:
		body = base.Lit.Body
		results = base.Lit.Type.Results
	}
	if body == nil || ctx == nil {
		n.Direct = n.Direct.With(EffUnknown)
		return
	}
	info := ctx.pkg.Info
	funcTypedResult := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil || tv.IsNil() {
			return false
		}
		_, isSig := tv.Type.Underlying().(*types.Signature)
		return isSig
	}
	attach := func(r resolution, at token.Pos) {
		for _, t := range r.targets {
			n.Edges = append(n.Edges, Edge{Callee: t, Pos: ctx.pkg.Fset.Position(at), Kind: "returns"})
		}
		n.Direct = n.Direct.Union(r.eff &^ ctx.mask)
		if r.unknown {
			pos := ctx.pkg.Fset.Position(at)
			if lines := ctx.pkg.Annotations().PureLines[pos.Filename]; lines == nil || !lines[pos.Line] {
				if !n.Direct.Has(EffUnknown) {
					n.EffectSite[EffUnknown] = pos
				}
				n.Direct = n.Direct.With(EffUnknown)
				n.UnknownSites = append(n.UnknownSites, UnknownSite{Pos: pos, Reason: "untrackable returned func value"})
			}
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := x.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 && results != nil {
			// Bare return with named results: chase the named objects.
			for _, fld := range results.List {
				for _, name := range fld.Names {
					obj := info.Defs[name]
					if obj == nil || obj.Type() == nil {
						continue
					}
					if _, isSig := obj.Type().Underlying().(*types.Signature); !isSig {
						continue
					}
					attach(resolveValueObj(b, ctx, obj, nil), ret.Pos())
				}
			}
			return true
		}
		for _, res := range ret.Results {
			if !funcTypedResult(res) {
				continue
			}
			attach(resolveValueExpr(b, ctx, res, nil), res.Pos())
		}
		return true
	})
}

// finishKeys freezes the sorted key index once all nodes exist.
func (b *builder) finishKeys() {
	b.prog.keys = make([]string, 0, len(b.prog.Funcs))
	for k := range b.prog.Funcs {
		b.prog.keys = append(b.prog.keys, k)
	}
	sort.Strings(b.prog.keys)
}

// propagate computes Summary and AcquiresAll bottom-up over the strongly
// connected components of the call graph: sccs emits callees first, so
// every out-of-component callee is final when its caller's component is.
func (b *builder) propagate() {
	callees := func(n *FuncNode) []*FuncNode {
		out := make([]*FuncNode, len(n.Edges))
		for i, e := range n.Edges {
			out[i] = e.Callee
		}
		return out
	}
	for _, comp := range sccs(b.prog.SortedFuncs(), callees) {
		finalizeSCC(comp)
	}
}

// sccs returns the strongly connected components of the graph reachable
// from order under succ (iterative Tarjan, deterministic in order and in
// succ's order). Each component is emitted after every component it
// reaches — callees first — with members in stack-pop order.
func sccs[T comparable](order []T, succ func(T) []T) [][]T {
	index := make(map[T]int, len(order))
	low := make(map[T]int, len(order))
	onStack := make(map[T]bool, len(order))
	var stack []T
	var out [][]T

	type frame struct {
		n    T
		succ []T
		ei   int
	}
	push := func(frames []frame, n T) []frame {
		index[n] = len(index) + 1
		low[n] = index[n]
		stack = append(stack, n)
		onStack[n] = true
		return append(frames, frame{n: n, succ: succ(n)})
	}
	for _, root := range order {
		if index[root] != 0 {
			continue
		}
		frames := push(nil, root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(f.succ) {
				w := f.succ[f.ei]
				f.ei++
				if index[w] == 0 {
					frames = push(frames, w)
				} else if onStack[w] && index[w] < low[f.n] {
					low[f.n] = index[w]
				}
				continue
			}
			n := f.n
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].n
				low[p] = min(low[p], low[n])
			}
			if low[n] == index[n] {
				var comp []T
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == n {
						break
					}
				}
				out = append(out, comp)
			}
		}
	}
	return out
}

// finalizeSCC computes the shared Summary and AcquiresAll of one strongly
// connected component. Out-of-component callees are already final.
func finalizeSCC(comp []*FuncNode) {
	inComp := make(map[*FuncNode]bool, len(comp))
	for _, n := range comp {
		inComp[n] = true
	}
	var eff EffectSet
	locks := make(map[string]token.Position)
	for _, n := range comp {
		eff = eff.Union(n.Direct)
		for k, p := range n.Acquires {
			if _, ok := locks[k]; !ok {
				locks[k] = p
			}
		}
		for _, e := range n.Edges {
			if inComp[e.Callee] {
				continue
			}
			eff = eff.Union(e.Callee.Summary)
			for k, p := range e.Callee.AcquiresAll {
				if _, ok := locks[k]; !ok {
					locks[k] = p
				}
			}
		}
	}
	for _, n := range comp {
		n.Summary = eff
		n.AcquiresAll = locks
	}
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
