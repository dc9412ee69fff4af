package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder is the first flow-sensitive check: it tracks sync.Mutex /
// sync.RWMutex acquisitions through each function's CFG and reports
//
//   - a return (explicit or fall-off-the-end) on a path where a lock
//     is still held and no defer releases it — the early-return leak
//     that serializes a server for good;
//   - re-acquiring a lock already held on some path (self-deadlock;
//     RLock-while-RLock is allowed);
//   - inconsistent acquisition order: if one function acquires B while
//     holding A and another (or the same) acquires A while holding B,
//     both sites are reported — the classic ABBA deadlock.
//
// The analysis is intraprocedural and keys locks symbolically: a
// field selector by its named type and field (every instance of
// core.Engine.mu is "the same lock" for ordering), a package-level
// var by its qualified name, a local by its declaration. Channel
// semaphores and other hand-rolled locks are out of scope: a
// context-aware channel acquire (xbard's solve semaphore) gives up on
// one path and holds on the other, a shape a must-analysis cannot
// follow.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "sync.Mutex/RWMutex held across returns and inconsistent lock acquisition order",
	Run:  runLockOrder,
}

// heldLock is one tracked acquisition.
type heldLock struct {
	pos      token.Pos // the Lock/RLock call
	read     bool      // RLock rather than Lock
	deferred bool      // a defer releasing it has been seen
}

// lockState maps lock keys to their acquisition on every path
// reaching a point (must-analysis: intersection join).
type lockState map[string]heldLock

func cloneLockState(s lockState) lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinLockState(a, b lockState) lockState {
	out := make(lockState)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			// Held on both paths; the release is guaranteed only if
			// both paths deferred one.
			va.deferred = va.deferred && vb.deferred
			out[k] = va
		}
	}
	return out
}

func equalLockState(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.deferred != vb.deferred || va.read != vb.read {
			return false
		}
	}
	return true
}

// lockOp is one Lock/Unlock call found inside a node.
type lockOp struct {
	key    string
	name   string // display form for messages
	pos    token.Pos
	read   bool
	unlock bool
}

func runLockOrder(pass *Pass) {
	// order[a][b] records the first site where b was acquired while a
	// was held; names maps keys to display strings.
	order := make(map[string]map[string]token.Pos)
	names := make(map[string]string)

	funcDecls(pass, func(decl *ast.FuncDecl, g *funcCFG) {
		d := dataflow[lockState]{
			bottom:   func() lockState { return make(lockState) },
			clone:    cloneLockState,
			join:     joinLockState,
			equal:    equalLockState,
			transfer: func(s lockState, n ast.Node) { lockTransfer(pass, s, n) },
		}
		runForward(g, d, func(n ast.Node, before lockState) {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				reportHeld(pass, before, n.Pos(), names)
			case *implicitReturn:
				reportHeld(pass, before, n.Pos(), names)
			case *ast.DeferStmt, *ast.GoStmt:
				return // releases, not uses; spawned bodies are separate
			default:
				for _, op := range lockOpsIn(pass, n) {
					names[op.key] = op.name
					if op.unlock {
						continue
					}
					if h, ok := before[op.key]; ok && !(h.read && op.read) {
						pass.Reportf(op.pos, "%s acquired while already held (self-deadlock); first acquired at %s",
							op.name, pass.Fset.Position(h.pos))
					}
					for k := range before {
						if k == op.key {
							continue
						}
						if order[k] == nil {
							order[k] = make(map[string]token.Pos)
						}
						if _, ok := order[k][op.key]; !ok {
							order[k][op.key] = op.pos
						}
					}
				}
			}
		})
	})

	// Order-inversion pass over the whole package's acquisition graph:
	// report every edge a→b that lies on a cycle.
	var froms []string
	for a := range order {
		froms = append(froms, a)
	}
	sort.Strings(froms)
	for _, a := range froms {
		var tos []string
		for b := range order[a] {
			tos = append(tos, b)
		}
		sort.Strings(tos)
		for _, b := range tos {
			if orderReaches(order, b, a) {
				pass.Reportf(order[a][b],
					"%s acquired while holding %s, but elsewhere %s is acquired while holding %s (lock order inversion)",
					names[b], names[a], names[a], names[b])
			}
		}
	}
}

// reportHeld flags every lock still held (and not deferred-released)
// at a return point.
func reportHeld(pass *Pass, s lockState, pos token.Pos, names map[string]string) {
	var keys []string
	for k, h := range s {
		if !h.deferred {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		pass.Reportf(pos, "return with %s held (acquired at %s); unlock before returning or defer the unlock",
			names[k], pass.Fset.Position(s[k].pos))
	}
}

// lockTransfer applies one node's lock effects to s.
func lockTransfer(pass *Pass, s lockState, n ast.Node) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		// defer mu.Unlock(), or defer func(){ ... mu.Unlock() ... }():
		// every unlock inside marks its lock released-at-exit.
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			for _, op := range lockOpsIn(pass, lit.Body) {
				markDeferred(s, op)
			}
		} else if op, ok := callLockOp(pass, n.Call); ok {
			markDeferred(s, op)
		}
	case *ast.GoStmt:
		// Runs concurrently; its locking is analyzed when its literal
		// is (not) reached — out of intraprocedural scope.
	default:
		for _, op := range lockOpsIn(pass, n) {
			if op.unlock {
				delete(s, op.key)
			} else {
				if h, ok := s[op.key]; ok {
					// Keep the first acquisition; preserve deferred.
					h.read = h.read && op.read
					s[op.key] = h
				} else {
					s[op.key] = heldLock{pos: op.pos, read: op.read}
				}
			}
		}
	}
}

func markDeferred(s lockState, op lockOp) {
	if !op.unlock {
		return
	}
	if h, ok := s[op.key]; ok {
		h.deferred = true
		s[op.key] = h
	}
}

// lockOpsIn collects the Mutex/RWMutex operations syntactically inside
// n, in source order, without descending into function literals or
// go/defer statements (those run elsewhere).
func lockOpsIn(pass *Pass, n ast.Node) []lockOp {
	if _, ok := n.(*implicitReturn); ok {
		return nil // synthetic node, not walkable
	}
	var ops []lockOp
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if op, ok := callLockOp(pass, m); ok {
				ops = append(ops, op)
			}
		}
		return true
	})
	return ops
}

// callLockOp decodes call as a sync.(RW)Mutex Lock/Unlock/RLock/
// RUnlock method call on an addressable receiver.
func callLockOp(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	var read, unlock bool
	switch fn.Name() {
	case "Lock":
	case "RLock":
		read = true
	case "Unlock":
		unlock = true
	case "RUnlock":
		read, unlock = true, true
	default:
		return lockOp{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	key, name := lockKey(pass, sel.X)
	return lockOp{key: key, name: name, pos: call.Pos(), read: read, unlock: unlock}, true
}

// lockKey derives the symbolic identity of a lock expression, plus a
// display name for messages.
func lockKey(pass *Pass, expr ast.Expr) (key, name string) {
	expr = ast.Unparen(expr)
	name = types.ExprString(expr)
	switch e := expr.(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[e]
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return "pkg:" + v.Pkg().Path() + "." + v.Name(), name
			}
			return fmt.Sprintf("local:%d", v.Pos()), name
		}
	case *ast.SelectorExpr:
		if sel := pass.Info.Selections[e]; sel != nil {
			// Field selector: key by the named receiver type and field
			// so every instance of that type shares one ordering node.
			t := sel.Recv()
			for {
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
					continue
				}
				break
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return "field:" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name, name
			}
		}
		if v, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// Qualified package-level var (otherpkg.Mu).
			return "pkg:" + v.Pkg().Path() + "." + v.Name(), name
		}
	}
	return "expr:" + name, name
}

// orderReaches reports whether `to` is reachable from `from` in the
// acquired-while-holding graph.
func orderReaches(order map[string]map[string]token.Pos, from, to string) bool {
	seen := make(map[string]bool)
	var walk func(k string) bool
	walk = func(k string) bool {
		if k == to {
			return true
		}
		if seen[k] {
			return false
		}
		seen[k] = true
		for next := range order[k] {
			if walk(next) {
				return true
			}
		}
		return false
	}
	return walk(from)
}
