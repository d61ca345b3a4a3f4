package transientleak_test

import (
	"testing"

	"replidtn/internal/analysis/linttest"
	"replidtn/internal/analysis/transientleak"
)

// TestGolden checks the analyzer against the fixture packages: transient
// metadata reaching the binary codec's Append* entry points and
// transient-bearing transport frame structs are flagged, replicated-only
// payloads and unexported (never-serialized) fields stay quiet, and the
// justified //lint:allow escape hatch marks the sanctioned crossings.
func TestGolden(t *testing.T) {
	linttest.Run(t, transientleak.Analyzer)
}
