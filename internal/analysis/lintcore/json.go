package lintcore

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
)

// jsonDiagnostic is the machine-readable diagnostic shape consumed by CI:
// flat fields, workspace-relative file paths (GitHub annotations require
// them), one object per finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the top-level -json output document.
type jsonReport struct {
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Packages    int              `json:"packages"`
}

// WriteJSON renders a Check result as one JSON document. File paths are
// made relative to the current directory when possible so the output is
// stable across checkouts.
func WriteJSON(w io.Writer, res *Result) error {
	cwd, _ := os.Getwd()
	report := jsonReport{
		Diagnostics: make([]jsonDiagnostic, 0, len(res.Diagnostics)),
		Packages:    res.Packages,
	}
	for _, d := range res.Diagnostics {
		file := d.Pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, file); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
				file = rel
			}
		}
		report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}
