// Package analysis assembles the dtnlint invariant checkers. Each analyzer
// mechanizes one design rule the repo's correctness claims rest on; the
// catalog mapping analyzers to rules lives in DESIGN.md §10.
package analysis

import (
	"replidtn/internal/analysis/callbackunderlock"
	"replidtn/internal/analysis/determinism"
	"replidtn/internal/analysis/errdiscard"
	"replidtn/internal/analysis/lintcore"
	"replidtn/internal/analysis/lockorder"
	"replidtn/internal/analysis/transientleak"
	"replidtn/internal/analysis/unboundedgrowth"
)

// All returns every dtnlint analyzer, in reporting order.
func All() []*lintcore.Analyzer {
	return []*lintcore.Analyzer{
		determinism.Analyzer,
		callbackunderlock.Analyzer,
		transientleak.Analyzer,
		errdiscard.Analyzer,
		lockorder.Analyzer,
		unboundedgrowth.Analyzer,
	}
}
