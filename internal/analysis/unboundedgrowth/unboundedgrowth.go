// Package unboundedgrowth implements the dtnlint analyzer that flags map
// and slice struct fields which only ever grow.
//
// The motivating bug is PR 7's summary caches: replica kept per-peer
// delta-knowledge frontiers and baselines in maps keyed by peer ID, with
// inserts on every sync and no eviction — on a long-lived node meeting an
// open-ended peer population, that is a slow memory leak, fixed
// only later by SummaryPeerCap. The same shape (state keyed by peer or item
// ID, populated on the hot path, freed never) recurs in routing tables,
// dedup sets, and delivery buffers, so the rule is mechanized: inside the
// state-bearing packages, a map/slice field of a struct that is written
// (map insert, self-append) in the struct's own methods must have a
// shrink site somewhere in the package — a delete, a clear, a reassignment
// that drops elements, a call into an eviction-style helper, or a len()
// bound checked in the same function as the growth.
//
// Deliberately unbounded fields (an application-owned drain buffer) carry a
// //lint:allow with the justification, which is the audit trail this
// analyzer exists to force.
package unboundedgrowth

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"replidtn/internal/analysis/lintcore"
)

// Analyzer is the unbounded-state invariant checker.
var Analyzer = &lintcore.Analyzer{
	Name: "unboundedgrowth",
	Doc:  "flag map/slice struct fields that grow in methods with no delete/eviction/cap site in the package",
	Run:  run,
}

// scopeSegments are the packages that hold long-lived per-peer/per-item
// state; fixture packages mimic these names in tests.
var scopeSegments = []string{
	"replica", "store", "transport", "messaging", "discovery",
	"routing", "prophet", "maxprop", "persist", "wal", "vclock",
}

// shrinkCallee matches helper names that imply bounded retention when a
// field is passed to (or its holder invokes) them.
var shrinkCallee = regexp.MustCompile(`(?i)(evict|prune|trim|expire|compact|reset|clear|drop|purge|shrink|gc|limit|cap)`)

// fieldRef identifies a struct field type-qualified, so writes through any
// instance or alias aggregate onto one ledger entry.
type fieldRef struct {
	typ   string // named type, pkgpath.Name
	field string
}

type growth struct {
	ref    fieldRef
	pos    token.Pos
	method string
	kind   string // "map" or "slice"
	fn     *ast.FuncDecl
}

func run(pass *lintcore.Pass) error {
	if !lintcore.PathHasSegment(pass.Pkg.Path(), scopeSegments...) {
		return nil
	}
	var growths []growth
	shrunk := make(map[fieldRef]bool)
	// capped marks fields whose growth function also checks len(field)
	// against a bound; keyed per enclosing function.
	type funcField struct {
		fn  *ast.FuncDecl
		ref fieldRef
	}
	capped := make(map[funcField]bool)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := receiverType(pass, fd)
			lazyInit := lazyInitAssigns(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					scanAssign(pass, fd, recv, n, &growths, shrunk, lazyInit)
				case *ast.IncDecStmt:
					// x.f[k]++ inserts k when absent: map growth.
					if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
						if ref, kind, ok := fieldOf(pass, idx.X); ok && kind == "map" && methodOf(pass, recv, idx.X) {
							growths = append(growths, growth{ref: ref, pos: n.Pos(), method: fd.Name.Name, kind: kind, fn: fd})
						}
					}
				case *ast.CallExpr:
					scanCall(pass, n, shrunk)
				case *ast.BinaryExpr:
					if ref, ok := lenBoundCheck(pass, n); ok {
						capped[funcField{fd, ref}] = true
					}
				}
				return true
			})
		}
	}

	// Report each still-unbounded field once, at its first growth site.
	sort.Slice(growths, func(i, j int) bool { return growths[i].pos < growths[j].pos })
	reported := make(map[fieldRef]bool)
	for _, g := range growths {
		if shrunk[g.ref] || reported[g.ref] {
			continue
		}
		if capped[funcField{g.fn, g.ref}] {
			continue
		}
		reported[g.ref] = true
		pass.Reportf(g.pos, "%s field %s.%s grows in %s but nothing in this package ever deletes, evicts, or caps it (unbounded per-peer/per-item state; the SummaryPeerCap bug class)", g.kind, g.ref.typ, g.ref.field, g.method)
	}
	return nil
}

// receiverType returns the named receiver type of a method, or nil.
func receiverType(pass *lintcore.Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.Types[fd.Recv.List[0].Type].Type
	if t == nil && len(fd.Recv.List[0].Names) > 0 {
		if obj := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
			t = obj.Type()
		}
	}
	return lintcore.NamedOrNil(t)
}

// fieldOf resolves expr to a map/slice struct field reference plus its
// element kind; ok is false for locals, parameters, and non-collections.
func fieldOf(pass *lintcore.Pass, expr ast.Expr) (fieldRef, string, bool) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return fieldRef{}, "", false
	}
	field, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !field.IsField() {
		return fieldRef{}, "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil {
		return fieldRef{}, "", false
	}
	owner := lintcore.NamedOrNil(selection.Recv())
	if owner == nil || owner.Obj().Pkg() == nil {
		return fieldRef{}, "", false
	}
	var kind string
	switch field.Type().Underlying().(type) {
	case *types.Map:
		kind = "map"
	case *types.Slice:
		kind = "slice"
	default:
		return fieldRef{}, "", false
	}
	ref := fieldRef{
		typ:   owner.Obj().Pkg().Path() + "." + owner.Obj().Name(),
		field: field.Name(),
	}
	return ref, kind, true
}

// scanAssign classifies one assignment as growth or shrink.
//
// Growth (methods of the owning type only — constructors build, they don't
// leak): x.f[k] = v on a map field; x.f = append(x.f, ...) on a slice
// field. Shrink (any function): x.f = <anything that isn't a pure
// self-append> — covers re-make, nil-out, x.f = x.f[:0], and the
// compaction idiom append(x.f[:i], x.f[i+1:]...).
func scanAssign(pass *lintcore.Pass, fd *ast.FuncDecl, recv *types.Named, n *ast.AssignStmt, growths *[]growth, shrunk map[fieldRef]bool, lazyInit map[token.Pos]bool) {
	for i, lhs := range n.Lhs {
		// Map insert: x.f[k] = v.
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if ref, kind, ok := fieldOf(pass, idx.X); ok && kind == "map" {
				if methodOf(pass, recv, idx.X) {
					*growths = append(*growths, growth{ref: ref, pos: lhs.Pos(), method: fd.Name.Name, kind: kind, fn: fd})
				}
			}
			continue
		}
		ref, kind, ok := fieldOf(pass, lhs)
		if !ok {
			continue
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		if kind == "slice" && isSelfAppend(pass, lhs, rhs) {
			if methodOf(pass, recv, lhs) {
				*growths = append(*growths, growth{ref: ref, pos: lhs.Pos(), method: fd.Name.Name, kind: kind, fn: fd})
			}
			continue
		}
		// Any other reassignment resets or rebuilds the field — unless it
		// is the lazy-init idiom (guarded by `if x.f == nil`), which only
		// ever runs once per field and bounds nothing.
		if !lazyInit[lhs.Pos()] {
			shrunk[ref] = true
		}
	}
}

// lazyInitAssigns collects the positions of assignment LHSs that sit inside
// an `if x.f == nil { ... }` body assigning that same field: first-use
// initialization, not eviction.
func lazyInitAssigns(pass *lintcore.Pass, fd *ast.FuncDecl) map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		be, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL {
			return true
		}
		var guarded ast.Expr
		if isNilIdent(pass, be.Y) {
			guarded = be.X
		} else if isNilIdent(pass, be.X) {
			guarded = be.Y
		}
		if guarded == nil {
			return true
		}
		ref, _, ok := fieldOf(pass, guarded)
		if !ok {
			return true
		}
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				if r, _, ok := fieldOf(pass, lhs); ok && r == ref && sameSelector(lhs, guarded) {
					out[lhs.Pos()] = true
				}
			}
			return true
		})
		return true
	})
	return out
}

func isNilIdent(pass *lintcore.Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// methodOf reports whether the write goes through the method's own receiver
// type: expr's base must resolve to a value of type recv. Writes to
// embedded/other structs from a constructor-style function don't count as
// the leak pattern.
func methodOf(pass *lintcore.Pass, recv *types.Named, expr ast.Expr) bool {
	if recv == nil {
		return false
	}
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil {
		return false
	}
	owner := lintcore.NamedOrNil(selection.Recv())
	return owner != nil && owner.Obj() == recv.Obj()
}

// isSelfAppend reports whether rhs is append(lhs, ...) with lhs as the
// exact first argument — pure growth. append over a sliced prefix
// (append(x.f[:i], ...)) drops elements and is treated as shrink by the
// caller.
func isSelfAppend(pass *lintcore.Pass, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return sameSelector(lhs, call.Args[0])
}

// sameSelector compares two expressions structurally as selector chains.
func sameSelector(a, b ast.Expr) bool {
	return selectorString(a) != "" && selectorString(a) == selectorString(b)
}

func selectorString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := selectorString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// scanCall records shrink sites expressed as calls: the delete and clear
// builtins, and passing the field to (or invoking it on an object through)
// an eviction-style helper.
func scanCall(pass *lintcore.Pass, call *ast.CallExpr, shrunk map[fieldRef]bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "delete" || id.Name == "clear") && len(call.Args) > 0 {
			if ref, _, ok := fieldOf(pass, call.Args[0]); ok {
				shrunk[ref] = true
			}
			return
		}
	}
	// field passed to an eviction-style helper by name.
	if fn := lintcore.CalleeFunc(pass.TypesInfo, call); fn != nil && shrinkCallee.MatchString(fn.Name()) {
		for _, arg := range call.Args {
			if ref, _, ok := fieldOf(pass, arg); ok {
				shrunk[ref] = true
			}
		}
		// A method like evictOldestLocked shrinks its receiver's
		// collections without naming them; credit every map/slice field of
		// the receiver type.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if owner := lintcore.NamedOrNil(sig.Recv().Type()); owner != nil && owner.Obj().Pkg() != nil {
				if st, ok := owner.Underlying().(*types.Struct); ok {
					typ := owner.Obj().Pkg().Path() + "." + owner.Obj().Name()
					for i := 0; i < st.NumFields(); i++ {
						switch st.Field(i).Type().Underlying().(type) {
						case *types.Map, *types.Slice:
							shrunk[fieldRef{typ: typ, field: st.Field(i).Name()}] = true
						}
					}
				}
			}
		}
	}
}

// lenBoundCheck matches `len(x.f) <op> bound` (either side), the inline
// capping idiom: the function that grows the field also checks its size.
func lenBoundCheck(pass *lintcore.Pass, be *ast.BinaryExpr) (fieldRef, bool) {
	switch be.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
	default:
		return fieldRef{}, false
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		call, ok := ast.Unparen(side).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "len" {
			continue
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		if ref, _, ok := fieldOf(pass, call.Args[0]); ok {
			return ref, true
		}
	}
	return fieldRef{}, false
}
