package transientleak_test

import (
	"testing"

	"replidtn/internal/analysis/linttest"
	"replidtn/internal/analysis/transientleak"
)

// TestGolden checks the analyzer against the fixture packages: a transient
// passed to the binary codec's Append* entry points is flagged, a struct
// whose codec makes that (annotated) call is not, replicated-only payloads
// stay quiet, and the justified //lint:allow escape hatch marks the
// sanctioned crossings.
func TestGolden(t *testing.T) {
	linttest.Run(t, transientleak.Analyzer)
}
