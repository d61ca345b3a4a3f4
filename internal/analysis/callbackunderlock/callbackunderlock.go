// Package callbackunderlock implements the dtnlint analyzer that flags
// invoking a registered callback — any function-typed struct field, such as
// the store.LiveNotify observer, replica.Config.OnCopies, or
// messaging.Config.OnReceive — while a sync.Mutex or sync.RWMutex belonging
// to the same object is held.
//
// The emulator's O(1) copy-accounting chain
// (store live-transition hook → replica OnCopies → messaging OnCopies) runs
// user-supplied code from deep inside the replica; a callback that calls
// back into the locked object deadlocks (sync.Mutex is not reentrant), and
// one that blocks extends the critical section unboundedly. The safe idiom,
// used by messaging.deliver and discovery.observe, is to copy the callback
// and its arguments under the lock and invoke it after unlocking.
//
// The analyzer is intraprocedural with one repo-idiom extension: a method
// whose name ends in "Locked" on a struct that has a mutex field is treated
// as executing with that mutex held, which is exactly the contract such
// helpers document. Deliberate call-under-lock contracts (replica's
// OnDeliver ordering guarantee) are annotated with //lint:allow and
// cataloged in DESIGN.md §10.
package callbackunderlock

import (
	"go/ast"
	"go/types"
	"strings"

	"replidtn/internal/analysis/lintcore"
)

// Analyzer is the callback-under-lock invariant checker.
var Analyzer = &lintcore.Analyzer{
	Name: "callbackunderlock",
	Doc:  "forbid calling function-typed fields (registered callbacks) while a mutex of the same object is held",
	Run:  run,
}

// heldLock describes one mutex the current code path holds.
type heldLock struct {
	// root is the base object the lock was reached through (the receiver
	// or local variable in s.mu.Lock()).
	root types.Object
	// expr renders the mutex expression for diagnostics ("s.mu").
	expr string
}

func run(pass *lintcore.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := map[string]heldLock{}
			if recv := lockedMethodReceiver(pass, fd); recv != nil {
				held["<locked-method>"] = heldLock{root: recv, expr: recv.Name() + "'s mutex (method is *Locked)"}
			}
			walkStmts(pass, fd.Body.List, held)
		}
	}
	return nil
}

// lockedMethodReceiver returns the receiver object of a method named
// *Locked whose receiver struct carries a mutex field, signalling the
// repo's "caller holds the lock" naming contract; nil otherwise.
func lockedMethodReceiver(pass *lintcore.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || !strings.HasSuffix(fd.Name.Name, "Locked") {
		return nil
	}
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	recvID := fd.Recv.List[0].Names[0]
	obj := pass.TypesInfo.Defs[recvID]
	if obj == nil {
		return nil
	}
	named := lintcore.NamedOrNil(obj.Type())
	if named == nil {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			return obj
		}
	}
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named := lintcore.NamedOrNil(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// walkStmts scans a statement list in order, maintaining the set of held
// locks. Nested control-flow bodies are scanned with a copy of the set, so
// an early-exit branch that unlocks (if dup { mu.Unlock(); return }) does
// not clear the lock for the straight-line code after it.
func walkStmts(pass *lintcore.Pass, list []ast.Stmt, held map[string]heldLock) {
	for _, stmt := range list {
		walkStmt(pass, stmt, held)
	}
}

func walkStmt(pass *lintcore.Pass, stmt ast.Stmt, held map[string]heldLock) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if applyLockOp(pass, call, held) {
				return
			}
			checkExpr(pass, s.X, held)
			return
		}
		checkExpr(pass, s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held for the remainder of the
		// function body, which the linear scan already models; a deferred
		// callback call is flagged like a direct one (it may run before the
		// deferred unlock).
		if isLockOp(pass, s.Call) == "" {
			checkExpr(pass, s.Call, held)
		}
	case *ast.GoStmt:
		// A goroutine does not inherit the caller's critical section.
	case *ast.BlockStmt:
		walkStmts(pass, s.List, copyHeld(held))
	case *ast.IfStmt:
		// Branch bodies get a copy of the held set: an early-exit branch
		// that unlocks and returns must not clear the lock for the
		// fall-through path.
		checkChildExprs(pass, s.Init, s.Cond, held)
		walkStmt(pass, s.Body, copyHeld(held))
		if s.Else != nil {
			walkStmt(pass, s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		checkChildExprs(pass, s.Init, s.Cond, held)
		walkStmt(pass, s.Body, copyHeld(held))
	case *ast.RangeStmt:
		checkExpr(pass, s.X, held)
		walkStmt(pass, s.Body, copyHeld(held))
	case *ast.SwitchStmt:
		checkChildExprs(pass, s.Init, s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		walkStmt(pass, s.Stmt, held)
	default:
		// Assignments, returns, sends, declarations: callback calls may hide
		// in any subexpression.
		checkExpr(pass, stmt, held)
	}
}

func copyHeld(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func checkChildExprs(pass *lintcore.Pass, init ast.Stmt, cond ast.Expr, held map[string]heldLock) {
	if init != nil {
		checkExpr(pass, init, held)
	}
	if cond != nil {
		checkExpr(pass, cond, held)
	}
}

// isLockOp classifies a call as a mutex acquire ("lock"), release
// ("unlock"), or neither ("").
func isLockOp(pass *lintcore.Pass, call *ast.CallExpr) string {
	fn := lintcore.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return "lock"
	case "Unlock", "RUnlock":
		return "unlock"
	}
	return ""
}

// applyLockOp updates the held set for a Lock/Unlock call and reports
// whether the call was one.
func applyLockOp(pass *lintcore.Pass, call *ast.CallExpr, held map[string]heldLock) bool {
	op := isLockOp(pass, call)
	if op == "" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return true
	}
	mutexExpr := sel.X // s.mu in s.mu.Lock(), or s itself for an embedded mutex
	root := lintcore.RootIdent(mutexExpr)
	if root == nil {
		return true
	}
	rootObj := lintcore.ObjectOf(pass.TypesInfo, root)
	if rootObj == nil {
		return true
	}
	key := exprString(mutexExpr)
	if op == "lock" {
		held[key] = heldLock{root: rootObj, expr: key}
	} else {
		delete(held, key)
	}
	return true
}

// exprString renders a selector chain compactly for keys and diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	default:
		return "?"
	}
}

// checkExpr flags calls through function-typed fields reachable from the
// root object of any held lock.
func checkExpr(pass *lintcore.Pass, n ast.Node, held map[string]heldLock) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		if fl, ok := node.(*ast.FuncLit); ok {
			_ = fl
			return false // a closure body runs later, under its own locks
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		field, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok || !field.IsField() {
			return true
		}
		if _, isFunc := field.Type().Underlying().(*types.Signature); !isFunc {
			return true
		}
		root := lintcore.RootIdent(sel.X)
		if root == nil {
			return true
		}
		rootObj := lintcore.ObjectOf(pass.TypesInfo, root)
		for _, lock := range held {
			if lock.root == rootObj {
				pass.Reportf(call.Pos(), "callback field %s is invoked while %s is held; copy it under the lock and call it after unlocking (deadlock/re-entrancy hazard)", exprString(sel), lock.expr)
				return true
			}
		}
		return true
	})
}
