// Package transientleak implements the dtnlint analyzer that mechanizes the
// paper's replicated-vs-transient metadata split (PAPER §item model,
// DESIGN.md §2): host-specific transient metadata — TTL hop budgets, spray
// copy allowances, traversal hop counts — is per-copy state that is "never
// replicated". A transient value that slips into a wire frame or a
// serialized snapshot silently turns host-local routing state into
// replicated state.
//
// item.Transient is a value with one codec, so the analyzer watches the one
// place it becomes bytes: it flags an item.Transient passed straight to the
// binary codec's Append* entry points (any package with a "wire"
// import-path segment: internal/wire and internal/wire/itemcodec). Structs
// that carry one (a sync batch item, a store snapshot entry) are encoded by
// codecs that make exactly that call, so the crossings are the calls
// themselves. There are two, each annotated with //lint:allow and cataloged
// in DESIGN.md §10: the sync batch codec (the policy-mediated transmit
// transient built by transmitTransient, e.g. a halved spray allowance, is
// an explicit wire field of the protocol) and the entry-snapshot codec (a
// WAL record restores the same host, so its own per-copy state
// legitimately survives). The batch-item layout's write of the transient
// its caller passed is annotated too. A further call is a new crossing and
// needs its own justification.
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
	Doc:  "forbid host-specific transient item metadata from reaching the binary codec outside its sanctioned crossings",
	Run:  run,
}

func run(pass *lintcore.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkEncode(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkEncode flags a binary-codec append of a transient value: any
// transient argument (the destination buffer never is) turns host-local
// state into wire or WAL bytes.
func checkEncode(pass *lintcore.Pass, call *ast.CallExpr) {
	fn := lintcore.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !lintcore.PathHasSegment(fn.Pkg().Path(), "wire") || !strings.HasPrefix(fn.Name(), "Append") {
		return
	}
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && isTransient(tv.Type) {
			pass.Reportf(call.Pos(), "transient host-specific metadata reaches %s.%s; transient fields are never replicated — strip them or annotate the sanctioned crossing", fn.Pkg().Name(), fn.Name())
			return
		}
	}
}

// isTransient reports whether t is the named type Transient declared in a
// package with an "item" import-path segment, so the analyzer also works
// against golden-test fixtures mimicking it.
func isTransient(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Name() == "Transient" && lintcore.PathHasSegment(obj.Pkg().Path(), "item")
}
