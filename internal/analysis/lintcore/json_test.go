package lintcore

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteJSON pins the machine-readable report shape CI consumes:
// one object with diagnostics (file/line/col/analyzer/message) and the
// package count — file paths rewritten relative to the working directory so
// GitHub annotations resolve.
func TestWriteJSON(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{
		Diagnostics: []Diagnostic{
			{
				Pos:      token.Position{Filename: filepath.Join(cwd, "pkg", "file.go"), Line: 12, Column: 3},
				Analyzer: "lockorder",
				Message:  "lock-order cycle",
			},
			{
				Pos:      token.Position{Filename: "/elsewhere/other.go", Line: 1, Column: 1},
				Analyzer: "determinism",
				Message:  "wall clock",
			},
		},
		Packages: 7,
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	var report struct {
		Diagnostics []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
		Packages int `json:"packages"`
	}
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if report.Packages != 7 {
		t.Errorf("packages = %d, want 7", report.Packages)
	}
	if len(report.Diagnostics) != 2 {
		t.Fatalf("report carries %d diagnostics, want 2", len(report.Diagnostics))
	}
	first := report.Diagnostics[0]
	if first.File != filepath.Join("pkg", "file.go") {
		t.Errorf("in-tree path = %q, want the cwd-relative %q", first.File, filepath.Join("pkg", "file.go"))
	}
	if first.Line != 12 || first.Col != 3 || first.Analyzer != "lockorder" || first.Message != "lock-order cycle" {
		t.Errorf("first diagnostic mangled: %+v", first)
	}
	// A path outside the tree must stay absolute rather than sprout ../..
	// chains that no annotation consumer can resolve.
	if second := report.Diagnostics[1]; second.File != "/elsewhere/other.go" {
		t.Errorf("out-of-tree path = %q, want it untouched", second.File)
	}
}

// TestWriteJSONEmpty keeps the empty report well-formed: diagnostics is an
// empty array, not null, so jq pipelines in CI need no null guards.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &Result{Packages: 2}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var report map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if string(report["diagnostics"]) == "null" {
		t.Errorf("empty report serializes diagnostics as null; want []")
	}
}
