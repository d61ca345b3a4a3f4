// Package transientleak implements the dtnlint analyzer that mechanizes the
// paper's replicated-vs-transient metadata split (PAPER §item model,
// DESIGN.md §2): host-specific transient metadata — TTL hop budgets, spray
// copy allowances, traversal hop counts — is per-copy state that is "never
// replicated". A transient value that slips into a wire frame or a
// serialized snapshot silently turns host-local routing state into
// replicated state, which the differential and crash-restart tests would
// only catch indirectly, if at all.
//
// The analyzer flags item.Transient (or any type containing it) at two
// serialization boundaries:
//
//   - arguments to the binary codec's Append* entry points (any package
//     with a "wire" import-path segment) — the only way values reach
//     transport frames and WAL records;
//   - struct types declared in a transport package whose fields contain
//     item.Transient — frame structs are the wire contract.
//
// The sanctioned crossings are annotated with //lint:allow at the call site
// and cataloged in DESIGN.md §10: the sync batch (replica.BatchItem carries
// the policy-mediated transmit transient built by transmitTransient, e.g. a
// halved spray allowance — an explicit wire field of the protocol, not a
// leak) and the WAL's entry records (a restart restores the same host, so
// its own per-copy state legitimately survives).
package transientleak

import (
	"go/ast"
	"go/types"
	"strings"

	"replidtn/internal/analysis/lintcore"
)

// Analyzer is the transient-metadata isolation checker.
var Analyzer = &lintcore.Analyzer{
	Name: "transientleak",
	Doc:  "forbid host-specific transient item metadata from reaching the binary codec or transport frame structs",
	Run:  run,
}

func run(pass *lintcore.Pass) error {
	inTransport := lintcore.PathHasSegment(pass.Pkg.Path(), "transport")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkEncode(pass, n)
			case *ast.TypeSpec:
				if inTransport {
					checkFrameStruct(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkEncode flags binary-codec appends of transient-bearing values: any
// transient-bearing argument (the destination buffer never is) turns
// host-local state into wire or WAL bytes.
func checkEncode(pass *lintcore.Pass, call *ast.CallExpr) {
	fn := lintcore.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !lintcore.PathHasSegment(fn.Pkg().Path(), "wire") || !strings.HasPrefix(fn.Name(), "Append") {
		return
	}
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok {
			continue
		}
		if path := transientPath(tv.Type, nil); path != "" {
			pass.Reportf(call.Pos(), "transient host-specific metadata reaches wire.%s via %s (through %s); transient fields are never replicated — strip them or annotate the sanctioned crossing", fn.Name(), types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), path)
			return
		}
	}
}

// checkFrameStruct flags transient-bearing fields of wire frame structs.
func checkFrameStruct(pass *lintcore.Pass, spec *ast.TypeSpec) {
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		// Unexported fields are never serialized; they are exactly where
		// deliberately host-local state belongs.
		exported := len(field.Names) == 0 // embedded: conservatively check
		for _, name := range field.Names {
			if name.IsExported() {
				exported = true
			}
		}
		if !exported {
			continue
		}
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		if path := transientPath(tv.Type, nil); path != "" {
			pass.Reportf(field.Pos(), "frame struct %s carries transient host-specific metadata (through %s); the wire format must only move replicated state", spec.Name.Name, path)
		}
	}
}

// transientPath reports how t reaches item.Transient ("" when it does not):
// the shortest chain of named types / struct fields, rendered for the
// diagnostic. The item package is identified by its import-path tail so the
// analyzer also works against golden-test fixtures mimicking it.
func transientPath(t types.Type, seen map[types.Type]bool) string {
	if isTransient(t) {
		return typeName(t)
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named, *types.Alias:
		return transientPath(u.Underlying(), seen)
	case *types.Pointer:
		return transientPath(u.Elem(), seen)
	case *types.Slice:
		return transientPath(u.Elem(), seen)
	case *types.Array:
		return transientPath(u.Elem(), seen)
	case *types.Map:
		if p := transientPath(u.Key(), seen); p != "" {
			return p
		}
		return transientPath(u.Elem(), seen)
	case *types.Chan:
		return transientPath(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			// Unexported fields are host-local by convention (see
			// checkFrameStruct); only exported ones are followed.
			if !f.Exported() {
				continue
			}
			if p := transientPath(f.Type(), seen); p != "" {
				return "field " + f.Name() + " → " + p
			}
		}
	}
	return ""
}

// isTransient reports whether t is the named type Transient declared in an
// item package.
func isTransient(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Transient" {
		return false
	}
	return lintcore.PathHasSegment(obj.Pkg().Path(), "item")
}

// typeName renders a type's bare name for the reach chain.
func typeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Pkg().Name() + "." + named.Obj().Name()
	}
	return t.String()
}
