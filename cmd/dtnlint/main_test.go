package main

import "testing"

// TestLintedPackagesStayClean pins the two packages this PR brought under
// the determinism invariant: discovery (whose time.Now calls at
// discovery.go:130 and :214 the analyzer originally found, fixed by the
// injected Config.Clock) and vclock. A regression reintroducing a wall-clock
// read fails here as well as in `make lint`.
func TestLintedPackagesStayClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks packages from source; skipped in -short runs")
	}
	res, err := check([]string{
		"replidtn/internal/discovery",
		"replidtn/internal/vclock",
	})
	if err != nil {
		t.Fatalf("dtnlint run: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
