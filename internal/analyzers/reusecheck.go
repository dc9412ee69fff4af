package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReuseCheck tracks the lifecycle of pooled values — solvers and
// lattices handed back through a recycling API — and reports uses
// after release, double releases, and releases of values that later
// escape. Recycling APIs opt in with a directive on their declaration:
//
//	//lint:pooled
//	func (e *Engine) putSolver(s *core.Solver) { ... }
//
// marks every reference-typed argument as released by the call, and
//
//	//lint:pooled recv
//	func (it *item) refill(n int)
//
// marks the receiver as recycled in place: values previously derived
// from it (views of a buffer the call replaces) are invalidated, while
// the receiver itself stays usable.
//
// The analysis is flow-sensitive (may-analysis over the CFG: a
// release on any path poisons the join) and tracks provenance through
// aliasing, field/index selection, and method calls on a pooled value
// — but not through ordinary function-call arguments, so copying data
// out (`append([]float64(nil), res.Blocking...)`) ends the taint.
// `defer pool.put(x)` is release-at-exit and never poisons the body.
var ReuseCheck = &Analyzer{
	Name: "reusecheck",
	Doc:  "use-after-release, double release, and escapes of //lint:pooled recycled values",
	Run:  runReuseCheck,
}

// objSet is a set of objects.
type objSet map[types.Object]bool

func (s objSet) clone() objSet {
	out := make(objSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// reuseState is the per-point lifecycle state.
type reuseState struct {
	// released maps an object to the release site poisoning it.
	released map[types.Object]token.Pos
	// derived maps an object to the pooled roots it may carry views of
	// (roots are pre-resolved, so chains stay one hop). A composite
	// value (a response struct holding memoized slices) can carry
	// several.
	derived map[types.Object]objSet
}

func cloneReuseState(s reuseState) reuseState {
	out := reuseState{
		released: make(map[types.Object]token.Pos, len(s.released)),
		derived:  make(map[types.Object]objSet, len(s.derived)),
	}
	for k, v := range s.released {
		out.released[k] = v
	}
	for k, v := range s.derived {
		out.derived[k] = v.clone()
	}
	return out
}

func joinReuseState(a, b reuseState) reuseState {
	out := cloneReuseState(a)
	for k, v := range b.released {
		if _, ok := out.released[k]; !ok {
			out.released[k] = v
		}
	}
	for k, v := range b.derived {
		if have, ok := out.derived[k]; ok {
			for r := range v {
				have[r] = true
			}
		} else {
			out.derived[k] = v.clone()
		}
	}
	return out
}

func equalReuseState(a, b reuseState) bool {
	if len(a.released) != len(b.released) || len(a.derived) != len(b.derived) {
		return false
	}
	for k := range a.released {
		if _, ok := b.released[k]; !ok {
			return false
		}
	}
	for k, v := range a.derived {
		w, ok := b.derived[k]
		if !ok || len(v) != len(w) {
			return false
		}
		for r := range v {
			if !w[r] {
				return false
			}
		}
	}
	return true
}

// rootsOf resolves an object's pooled roots (itself if underived).
func (s reuseState) rootsOf(obj types.Object) objSet {
	if r, ok := s.derived[obj]; ok {
		return r
	}
	return objSet{obj: true}
}

func runReuseCheck(pass *Pass) {
	pc := newPooledCache(pass)

	funcDecls(pass, func(decl *ast.FuncDecl, g *funcCFG) {
		d := dataflow[reuseState]{
			bottom: func() reuseState {
				return reuseState{
					released: make(map[types.Object]token.Pos),
					derived:  make(map[types.Object]objSet),
				}
			},
			clone:    cloneReuseState,
			join:     joinReuseState,
			equal:    equalReuseState,
			transfer: func(s reuseState, n ast.Node) { reuseTransfer(pass, pc, s, n) },
		}
		runForward(g, d, func(n ast.Node, before reuseState) {
			reuseVisit(pass, pc, before, n)
		})
	})
}

// reuseTransfer applies one node's lifecycle effects.
func reuseTransfer(pass *Pass, pc *pooledCache, s reuseState, n ast.Node) {
	switch n := n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred releases run at exit; spawned bodies run elsewhere.
		return
	case *ast.AssignStmt:
		// Record RHS provenance first (it reads the old bindings), then
		// rebind the LHS objects.
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				recordReleases(pass, pc, s, n.Rhs[i])
				bindLHS(pass, s, lhs, n.Rhs[i])
			}
		} else {
			// x, y := f(): one call, multiple results — a call boundary,
			// so the LHS objects start fresh.
			for _, rhs := range n.Rhs {
				recordReleases(pass, pc, s, rhs)
			}
			for _, lhs := range n.Lhs {
				bindLHS(pass, s, lhs, nil)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
						recordReleases(pass, pc, s, rhs)
					}
					bindLHS(pass, s, name, rhs)
				}
			}
		}
	default:
		recordReleases(pass, pc, s, n)
	}
}

// bindLHS rebinds one assignment target: a plain identifier takes the
// provenance of its RHS (clearing any released poison — rebinding is
// a fresh value); writing through a selector or index taints the
// container's root instead.
func bindLHS(pass *Pass, s reuseState, lhs ast.Expr, rhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	id, ok := lhs.(*ast.Ident)
	if !ok {
		// x.f = v, x[i] = v: storing a tracked reference value taints
		// the container — serializing x later still reads the pooled
		// storage v points into. Scalar stores leave x alone.
		if rhs == nil || !rhsRefBearing(pass, rhs) {
			return
		}
		roots := deriveRoots(pass, s, rhs)
		if len(roots) == 0 {
			return
		}
		base := baseIdent(lhs)
		if base == nil {
			return
		}
		obj := identObj(pass, base)
		if obj == nil {
			return
		}
		have := s.derived[obj]
		if have == nil {
			have = make(objSet)
			s.derived[obj] = have
		}
		for r := range roots {
			if r != obj {
				have[r] = true
			}
		}
		if len(have) == 0 {
			delete(s.derived, obj)
		}
		return
	}
	obj := identObj(pass, id)
	if obj == nil {
		return
	}
	delete(s.released, obj)
	delete(s.derived, obj)
	if rhs == nil || !refBearing(obj.Type()) {
		return
	}
	roots := deriveRoots(pass, s, rhs)
	delete(roots, obj)
	if len(roots) > 0 {
		s.derived[obj] = roots
	}
}

// rhsRefBearing reports whether an expression's type can alias pooled
// storage.
func rhsRefBearing(pass *Pass, expr ast.Expr) bool {
	tv, ok := pass.Info.Types[expr]
	return ok && refBearing(tv.Type)
}

// baseIdent walks selector/index/star chains to the identifier at the
// base of an lvalue (nil when the base is not a plain identifier).
func baseIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// deriveRoots finds the pooled objects an expression may derive from:
// aliasing, selection, indexing, dereference, address-taking, method
// calls on a tracked receiver, and composite literals carrying
// tracked values all propagate; ordinary call arguments do not.
func deriveRoots(pass *Pass, s reuseState, expr ast.Expr) objSet {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.Ident:
		if obj := identObj(pass, e); obj != nil && refBearing(obj.Type()) {
			return s.rootsOf(obj).clone()
		}
	case *ast.SelectorExpr:
		// pkg.Name is not a derivation; x.f is — but only when the
		// selected field can itself alias storage.
		if sel := pass.Info.Selections[e]; sel != nil && rhsRefBearing(pass, e) {
			return deriveRoots(pass, s, e.X)
		}
	case *ast.IndexExpr:
		if rhsRefBearing(pass, e) {
			return deriveRoots(pass, s, e.X)
		}
	case *ast.SliceExpr:
		return deriveRoots(pass, s, e.X)
	case *ast.StarExpr:
		return deriveRoots(pass, s, e.X)
	case *ast.TypeAssertExpr:
		return deriveRoots(pass, s, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return deriveRoots(pass, s, e.X)
		}
	case *ast.CallExpr:
		// A method call on a tracked receiver yields a view into it
		// (resultAt, Result, Sub) when the result is a concrete
		// reference type; interface results (error, above all) are
		// fresh values, and a plain function call is a copy boundary.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if selinfo := pass.Info.Selections[sel]; selinfo != nil {
				if tv, ok := pass.Info.Types[e]; ok && tv.Type != nil {
					if _, iface := tv.Type.Underlying().(*types.Interface); iface {
						return nil
					}
				}
				return deriveRoots(pass, s, sel.X)
			}
		}
	case *ast.CompositeLit:
		var roots objSet
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			for r := range deriveRoots(pass, s, elt) {
				if roots == nil {
					roots = make(objSet)
				}
				roots[r] = true
			}
		}
		return roots
	}
	return nil
}

// recordReleases scans n (skipping function literals and go/defer) for
// calls to //lint:pooled functions and updates s.
func recordReleases(pass *Pass, pc *pooledCache, s reuseState, n ast.Node) {
	forEachCall(n, func(call *ast.CallExpr) {
		mode, ok := pc.lookup(calleeFunc(pass.Info, call))
		if !ok {
			return
		}
		if mode.recv {
			// Recycle-in-place: values derived from the receiver before
			// this call now point into a refilled lattice. Only values
			// recorded against the receiver object itself are
			// invalidated — a receiver plucked out of a pool must not
			// poison the pool's container.
			recv, ok := ast.Unparen(callReceiver(call)).(*ast.Ident)
			if !ok {
				return
			}
			recvObj := identObj(pass, recv)
			if recvObj == nil {
				return
			}
			for obj, roots := range s.derived {
				if roots[recvObj] {
					s.released[obj] = call.Pos()
				}
			}
			return
		}
		for _, arg := range call.Args {
			if obj := argObject(pass, arg); obj != nil {
				s.released[obj] = call.Pos()
			}
		}
	})
}

// reuseVisit reports uses and double releases against the state
// holding before n executes.
func reuseVisit(pass *Pass, pc *pooledCache, before reuseState, n ast.Node) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	if _, ok := n.(*ast.GoStmt); ok {
		return
	}
	// Double release first: the releasing call's own argument idents
	// are exempt from the use check below.
	releasingIdents := make(map[*ast.Ident]bool)
	forEachCall(n, func(call *ast.CallExpr) {
		mode, ok := pc.lookup(calleeFunc(pass.Info, call))
		if !ok || mode.recv {
			return
		}
		for _, arg := range call.Args {
			id, _ := ast.Unparen(arg).(*ast.Ident)
			if id == nil {
				continue
			}
			releasingIdents[id] = true
			obj := identObj(pass, id)
			if obj == nil {
				continue
			}
			if pos, ok := before.released[obj]; ok {
				pass.Reportf(call.Pos(), "%s released again; already released at %s",
					id.Name, pass.Fset.Position(pos))
			}
		}
	})
	// Uses are checked against the before-state; assignment targets are
	// rebindings, not uses, so plain-ident LHS positions are exempt.
	rebinding := make(map[*ast.Ident]bool)
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				rebinding[id] = true
			}
		}
	case *ast.DeclStmt:
		// var declarations only define.
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && pass.Info.Defs[id] != nil {
				rebinding[id] = true
			}
			return true
		})
	}
	forEachIdent(n, func(id *ast.Ident) {
		if releasingIdents[id] || rebinding[id] || pass.Info.Defs[id] != nil {
			return
		}
		obj := identObj(pass, id)
		if obj == nil || !refBearing(obj.Type()) {
			return
		}
		if pos, ok := before.released[obj]; ok {
			pass.Reportf(id.Pos(), "%s used after release at %s", id.Name, pass.Fset.Position(pos))
			return
		}
		var hit types.Object
		for root := range before.derived[obj] {
			if _, ok := before.released[root]; !ok {
				continue
			}
			// Deterministic pick when several roots are poisoned.
			if hit == nil || root.Pos() < hit.Pos() {
				hit = root
			}
		}
		if hit != nil {
			pass.Reportf(id.Pos(), "%s (derived from %s) used after %s was released at %s",
				id.Name, hit.Name(), hit.Name(), pass.Fset.Position(before.released[hit]))
		}
	})
}

// identObj resolves an identifier to its object (use or def).
func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}

// argObject resolves a release-call argument to the local object being
// handed back (plain identifiers only: releasing x.f releases a field,
// which the container-level tracking does not model).
func argObject(pass *Pass, arg ast.Expr) types.Object {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := identObj(pass, id)
	if obj == nil || !refBearing(obj.Type()) {
		return nil
	}
	return obj
}

// callReceiver extracts the receiver expression of a method call.
func callReceiver(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// refBearing reports whether t can alias pooled storage: pointers,
// slices, maps, channels, interfaces — and structs or arrays carrying
// any of those (a struct copy shares its slices' backing arrays).
// Scalars and strings are value copies and do not track.
func refBearing(t types.Type) bool {
	return refBearingRec(t, make(map[types.Type]bool))
}

func refBearingRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refBearingRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return refBearingRec(u.Elem(), seen)
	}
	return false
}

// forEachCall walks n's calls without entering function literals or
// go/defer statements.
func forEachCall(n ast.Node, f func(*ast.CallExpr)) {
	walkNode(n, func(m ast.Node) {
		if call, ok := m.(*ast.CallExpr); ok {
			f(call)
		}
	})
}

// forEachIdent walks n's identifier uses without entering function
// literals or go/defer statements.
func forEachIdent(n ast.Node, f func(*ast.Ident)) {
	walkNode(n, func(m ast.Node) {
		if id, ok := m.(*ast.Ident); ok {
			f(id)
		}
	})
}

// walkNode walks one CFG node. A case or comm clause stands for its
// head only (the case expressions, the send or receive): its body
// statements are CFG nodes of their own, so walking them here too would
// apply a release in the body twice.
func walkNode(n ast.Node, f func(ast.Node)) {
	switch n := n.(type) {
	case *implicitReturn:
		return // synthetic node, not walkable
	case *ast.CaseClause:
		for _, e := range n.List {
			walkNode(e, f)
		}
		return
	case *ast.CommClause:
		if n.Comm != nil {
			walkNode(n.Comm, f)
		}
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		}
		f(m)
		return true
	})
}

// pooledMode describes one //lint:pooled directive.
type pooledMode struct {
	// recv: the call recycles its receiver in place instead of
	// releasing its arguments.
	recv bool
}

// pooledCache resolves which functions carry a //lint:pooled
// directive, looking at declarations in the current package and — via
// Pass.Dep — in already-loaded module-internal dependencies.
type pooledCache struct {
	pass  *Pass
	known map[*types.Func]*pooledMode // nil value = looked up, not pooled
}

func newPooledCache(pass *Pass) *pooledCache {
	pc := &pooledCache{pass: pass, known: make(map[*types.Func]*pooledMode)}
	for _, f := range pass.Files {
		pc.scanFile(f, pass.Info)
	}
	return pc
}

// scanFile records the pooled directives declared in one file.
func (pc *pooledCache) scanFile(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		mode, ok := parsePooledDoc(fd.Doc)
		if !ok {
			continue
		}
		if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
			m := mode
			pc.known[fn] = &m
		}
	}
}

// lookup reports whether fn is a pooled recycling API.
func (pc *pooledCache) lookup(fn *types.Func) (pooledMode, bool) {
	if fn == nil {
		return pooledMode{}, false
	}
	if m, ok := pc.known[fn]; ok {
		if m == nil {
			return pooledMode{}, false
		}
		return *m, true
	}
	pc.known[fn] = nil
	if fn.Pkg() == nil || pc.pass.Dep == nil {
		return pooledMode{}, false
	}
	dep := pc.pass.Dep(fn.Pkg().Path())
	if dep == nil {
		return pooledMode{}, false
	}
	// The loader shares one FileSet, so the callee's declaration is the
	// FuncDecl whose name sits at the *types.Func position.
	for _, f := range dep.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Pos() != fn.Pos() {
				continue
			}
			if fd.Doc != nil {
				if mode, ok := parsePooledDoc(fd.Doc); ok {
					m := mode
					pc.known[fn] = &m
					return mode, true
				}
			}
			return pooledMode{}, false
		}
	}
	return pooledMode{}, false
}

// parsePooledDoc finds a //lint:pooled directive in a doc comment.
func parsePooledDoc(doc *ast.CommentGroup) (pooledMode, bool) {
	for _, c := range doc.List {
		body, found := strings.CutPrefix(c.Text, "//lint:pooled")
		if !found {
			body, found = strings.CutPrefix(c.Text, "// lint:pooled")
			if !found {
				continue
			}
		}
		fields := strings.Fields(body)
		return pooledMode{recv: len(fields) > 0 && fields[0] == "recv"}, true
	}
	return pooledMode{}, false
}
