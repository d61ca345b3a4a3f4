package lintcore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a throwaway module for Check to chew on.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const checkGoMod = "module tmpfixture\n\ngo 1.22\n"

// TestCheckEndToEnd drives Check over a throwaway module: every matched
// package is analyzed, and a second run over the same tree reproduces the
// same diagnostics in the same order.
func TestCheckEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": checkGoMod,
		"base/base.go": `package base

func Ping() int { return pong() }

func pong() int { return 1 }
`,
		"top/top.go": `package top

import "tmpfixture/base"

func Call() int { return base.Ping() }
`,
		"side/side.go": `package side

func Quiet() int { return 2 }
`,
	})
	cfg := Config{Dir: dir, Patterns: []string{"./..."}, Analyzers: []*Analyzer{dummyAnalyzer}}

	first, err := Check(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.Packages != 3 {
		t.Fatalf("first run analyzed %d packages, want 3", first.Packages)
	}
	// base.Ping calls pong, top.Call calls base.Ping: two call sites total.
	if len(first.Diagnostics) != 2 {
		t.Fatalf("first run produced %d diagnostics, want 2: %v", len(first.Diagnostics), first.Diagnostics)
	}

	again, err := Check(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if len(again.Diagnostics) != len(first.Diagnostics) {
		t.Fatalf("second run produced %d diagnostics, want %d", len(again.Diagnostics), len(first.Diagnostics))
	}
	for i := range again.Diagnostics {
		if again.Diagnostics[i] != first.Diagnostics[i] {
			t.Fatalf("second run diagnostic %d = %v, want %v", i, again.Diagnostics[i], first.Diagnostics[i])
		}
	}
}

// TestCheckWithoutCacheDir checks that Check keeps no state between runs:
// each run over an unchanged tree analyzes every package afresh and reports
// the same diagnostic.
func TestCheckWithoutCacheDir(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": checkGoMod,
		"pkg/pkg.go": `package pkg

func F() int { return g() }

func g() int { return 1 }
`,
	})
	cfg := Config{Dir: dir, Patterns: []string{"./..."}, Analyzers: []*Analyzer{dummyAnalyzer}}
	for run := 0; run < 2; run++ {
		res, err := Check(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Packages != 1 {
			t.Fatalf("run %d analyzed %d packages, want 1", run, res.Packages)
		}
		if len(res.Diagnostics) != 1 {
			t.Fatalf("run %d produced %d diagnostics, want 1", run, len(res.Diagnostics))
		}
	}
}

// TestCheckFactsFlowToImporters verifies the fact plumbing: a package sees
// the facts its dependencies exported, and a package that imports nothing
// sees none.
func TestCheckFactsFlowToImporters(t *testing.T) {
	exporter := &Analyzer{
		Name: "facts",
		Doc:  "export one fact per package, report when a dependency exported one",
		Run: func(pass *Pass) error {
			for _, f := range pass.AllDepFacts("marker") {
				pass.Reportf(pass.Files[0].Pos(), "dependency fact seen: %s", f.Key)
			}
			pass.ExportFact(pass.Pkg.Path(), "marker", "present")
			return nil
		},
	}
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": checkGoMod,
		"base/base.go": `package base

func Ping() int { return 1 }
`,
		"top/top.go": `package top

import "tmpfixture/base"

func Call() int { return base.Ping() }
`,
		"side/side.go": `package side

func Quiet() int { return 2 }
`,
	})
	res, err := Check(Config{Dir: dir, Patterns: []string{"./..."}, Analyzers: []*Analyzer{exporter}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Diagnostics) != 1 {
		t.Fatalf("run produced %d diagnostics, want 1 (top sees base's fact, side sees none): %v", len(res.Diagnostics), res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if !strings.HasSuffix(d.Pos.Filename, filepath.Join("top", "top.go")) || !strings.Contains(d.Message, "tmpfixture/base") {
		t.Errorf("diagnostic = %v, want top.go seeing tmpfixture/base's fact", d)
	}
}
