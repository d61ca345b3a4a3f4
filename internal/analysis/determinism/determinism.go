// Package determinism implements the dtnlint analyzer that keeps
// wall-clock time, ambient randomness, environment lookups, and unordered
// map iteration out of the packages whose behavior must be bit-identical
// across runs (DESIGN.md §8, §10).
//
// The emulator and the seeded fault plan both promise byte-identical output
// for a given seed, however many runs execute at once; that promise only holds while
// every input is explicit (injected clocks, seeded rand.New sources) and
// every committed effect is produced in a deterministic order. This
// analyzer mechanizes those rules:
//
//   - no time.Now / time.Since / time.Until calls;
//   - no package-level math/rand functions (seeded *rand.Rand instances
//     created with rand.New(rand.NewSource(seed)) remain fine);
//   - no os.Getenv / os.LookupEnv / os.Environ — environment-derived
//     behavior is invisible to the seed;
//   - no map iteration whose body feeds an order-sensitive sink (appends to
//     an outer slice, writes to an outer writer or logger, sends on an
//     outer channel) unless the appended slice is sorted immediately after
//     the loop — the bug shape a repeated-run differential test catches
//     only late and expensively; this analyzer finds it at make-check time
//     with a file:line.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"replidtn/internal/analysis/lintcore"
)

// Analyzer is the determinism invariant checker.
var Analyzer = &lintcore.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, ambient randomness, env lookups, and order-leaking map iteration in determinism-critical packages",
	Run:  run,
}

// criticalSegments names the packages (by import-path segment) whose
// behavior must be reproducible from explicit seeds and injected clocks.
var criticalSegments = []string{"emu", "fault", "replica", "store", "vclock", "routing", "discovery", "obs", "trace", "mobility"}

// bannedTime are the wall-clock entry points.
var bannedTime = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedRand are the math/rand constructors that produce explicitly seeded
// generators; every other package-level function draws from the shared
// global source.
var allowedRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// bannedEnv are the environment lookups.
var bannedEnv = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

// writeVerbs name methods that commit output when invoked on state from
// outside a map-iteration body: stream writers, formatted printers, and the
// event-recorder verbs used by the emulation engine.
var writeVerbs = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Log": true, "Logf": true, "Record": true, "Emit": true,
}

// sortFuncs are the calls accepted as the "intervening sort" that makes a
// map-range-collected slice deterministic again.
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Sort": true, "sort.Stable": true, "sort.Slice": true, "sort.SliceStable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

func run(pass *lintcore.Pass) error {
	if !lintcore.PathHasSegment(pass.Pkg.Path(), criticalSegments...) {
		return nil
	}
	for _, f := range pass.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					checkMapRange(pass, file, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkCall flags calls into the banned nondeterministic APIs.
func checkCall(pass *lintcore.Pass, call *ast.CallExpr) {
	fn := lintcore.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Methods (e.g. (*rand.Rand).Intn, (time.Time).Sub) are fine: the
	// receiver is an explicit, injectable value. Only package-level
	// functions reach ambient state.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock; inject a clock (cfg.Clock / Now func) so emulation and tests control time", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(call.Pos(), "global rand.%s draws from the shared unseeded source; use an explicitly seeded rand.New(rand.NewSource(seed))", fn.Name())
		}
	case "os":
		if bannedEnv[fn.Name()] {
			pass.Reportf(call.Pos(), "os.%s makes behavior depend on the environment, invisible to the run's seed; take configuration explicitly", fn.Name())
		}
	}
}

// checkMapRange inspects one iteration over a map for effects whose order
// depends on Go's randomized map iteration.
func checkMapRange(pass *lintcore.Pass, file *ast.File, rng *ast.RangeStmt) {
	outer := func(e ast.Expr) types.Object {
		id := lintcore.RootIdent(e)
		if id == nil {
			return nil
		}
		obj := lintcore.ObjectOf(pass.TypesInfo, id)
		if obj == nil || obj.Pos() == 0 {
			return nil
		}
		// Declared outside the loop body (package-level objects included).
		if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			return nil
		}
		return obj
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for j, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || len(n.Lhs) <= j {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
					continue
				}
				obj := outer(n.Lhs[j])
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
					continue
				}
				if sortedAfter(pass, file, obj, rng.End()) {
					continue
				}
				pass.Reportf(n.Pos(), "append to %s inside iteration over a map commits map order; sort %s right after the loop or iterate a sorted key slice", obj.Name(), obj.Name())
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !writeVerbs[sel.Sel.Name] {
				return true
			}
			// Method on outer state (recorder.Log, buf.WriteString), or a
			// package-level printer writing to an outer destination
			// (fmt.Fprintf(w, ...)).
			target := ast.Expr(sel.X)
			if fn := lintcore.CalleeFunc(pass.TypesInfo, n); fn != nil && fn.Pkg() != nil {
				if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() == nil {
					if len(n.Args) == 0 {
						return true
					}
					target = n.Args[0]
				}
			}
			if obj := outer(target); obj != nil {
				pass.Reportf(n.Pos(), "%s inside iteration over a map writes in map order; collect into a slice and sort before emitting", sel.Sel.Name)
			}
		case *ast.SendStmt:
			if obj := outer(n.Chan); obj != nil {
				pass.Reportf(n.Pos(), "send on %s inside iteration over a map publishes values in map order; sort first", obj.Name())
			}
		}
		return true
	})
}

// sortedAfter reports whether the first use of obj after the loop (in
// source order, anywhere in the file, so nested loops and enclosing blocks
// are handled uniformly) is as an argument to a recognized sort call — the
// collect-then-sort idiom that restores determinism.
func sortedAfter(pass *lintcore.Pass, file *ast.File, obj types.Object, after token.Pos) bool {
	var first *ast.Ident
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if ok && id.Pos() > after && lintcore.ObjectOf(pass.TypesInfo, id) == obj {
			if first == nil || id.Pos() < first.Pos() {
				first = id
			}
		}
		return true
	})
	if first == nil {
		return false // never used again: map order escapes with the slice
	}
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintcore.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || !sortFuncs[fn.Pkg().Name()+"."+fn.Name()] {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id == first {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}
