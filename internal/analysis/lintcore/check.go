package lintcore

// Config parameterizes one Check run.
type Config struct {
	// Dir is the directory patterns are resolved from (the module root for
	// repo-wide runs). Empty means the current directory.
	Dir string
	// Patterns are go list package patterns, e.g. "./...".
	Patterns []string
	// Analyzers is the enabled analyzer set.
	Analyzers []*Analyzer
}

// Result is the outcome of one Check run.
type Result struct {
	// Diagnostics are the surviving (allow-filtered) diagnostics across all
	// matched packages, sorted by position.
	Diagnostics []Diagnostic
	// Packages is the number of matched target packages.
	Packages int
}

// Check is the driver entry point: resolve patterns, type-check the matched
// packages, and analyze them one at a time in dependency order so
// cross-package facts flow to importers. It is Load followed by Run, the
// same path the golden-fixture harness drives.
func Check(cfg Config) (*Result, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	pkgs, err := Load(dir, cfg.Patterns...)
	if err != nil {
		return nil, err
	}
	diags, err := Run(pkgs, cfg.Analyzers)
	if err != nil {
		return nil, err
	}
	return &Result{Diagnostics: diags, Packages: len(pkgs)}, nil
}
