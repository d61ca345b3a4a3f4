package lintcore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one loaded, type-checked target package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	// Imports are the package's direct imports (vendor-mapped), used to
	// order fact-dependent analysis.
	Imports   []string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	DepOnly    bool
	Error      *listError
}

type listError struct {
	Err string
}

// golist resolves patterns relative to dir with one `go list -deps -json`
// call. It returns every package in the dependency closure keyed by import
// path and the matched target import paths in dependency order (dependencies
// before dependents, which is the order go list emits). CGO is disabled for
// file selection so the pure-Go fallbacks of net/os are chosen and every
// compiled file is parseable Go source.
func golist(dir string, patterns []string) (metas map[string]*listPkg, targets []string, err error) {
	args := append([]string{
		"list", "-e", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,Imports,ImportMap,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lintcore: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	metas = make(map[string]*listPkg)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lintcore: decode go list output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lintcore: %s: %s", p.ImportPath, p.Error.Err)
		}
		meta := p
		metas[meta.ImportPath] = &meta
		if !meta.DepOnly && len(meta.GoFiles) > 0 {
			targets = append(targets, meta.ImportPath)
		}
	}
	return metas, targets, nil
}

// loader type-checks packages from source. Dependencies (including the
// standard library) are checked with IgnoreFuncBodies — only their exported
// shape matters — while target packages get full bodies and a populated
// types.Info. This is what lets dtnlint run offline with no go/packages or
// export-data machinery: one `go list -deps -json` call supplies the file
// sets and import resolution, and go/types does the rest.
//
// pkgs holds every package checked so far. A fully checked target is
// recorded there so dependents checked later (Load goes in dependency order)
// resolve it without a shape-only re-check; the first check of a path wins,
// so every importer sees one *types.Package per path.
type loader struct {
	fset  *token.FileSet
	metas map[string]*listPkg
	byDir map[string]*listPkg
	sizes types.Sizes
	pkgs  map[string]*types.Package
}

func newLoader(metas map[string]*listPkg) *loader {
	ld := &loader{
		fset:  token.NewFileSet(),
		metas: metas,
		byDir: make(map[string]*listPkg, len(metas)),
		sizes: types.SizesFor("gc", runtime.GOARCH),
		pkgs:  make(map[string]*types.Package),
	}
	for _, m := range metas {
		ld.byDir[m.Dir] = m
	}
	return ld
}

// Load resolves patterns (e.g. "./...") relative to dir, type-checks the
// matched packages and every dependency, and returns the matched packages.
func Load(dir string, patterns ...string) ([]*Package, error) {
	metas, targets, err := golist(dir, patterns)
	if err != nil {
		return nil, err
	}
	ld := newLoader(metas)
	var pkgs []*Package
	// go list emits dependencies before dependents, so each full check is
	// recorded before the targets that import it are checked.
	for _, path := range targets {
		pkg, err := ld.checkTarget(ld.metas[path])
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// parseFiles parses a package's Go files. Target packages keep comments
// (needed for //lint:allow and golden-test want markers); dependencies skip
// them for speed.
func (ld *loader) parseFiles(meta *listPkg, withComments bool) ([]*ast.File, error) {
	mode := parser.SkipObjectResolution
	if withComments {
		mode |= parser.ParseComments
	}
	files := make([]*ast.File, 0, len(meta.GoFiles))
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(meta.Dir, name), nil, mode)
		if err != nil {
			return nil, fmt.Errorf("lintcore: parse %s: %w", filepath.Join(meta.Dir, name), err)
		}
		files = append(files, f)
	}
	return files, nil
}

// checkTarget fully type-checks a matched package and records the result so
// importing targets resolve it without a shape-only re-check.
func (ld *loader) checkTarget(meta *listPkg) (*Package, error) {
	files, err := ld.parseFiles(meta, true)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var checkErrs []error
	conf := &types.Config{
		Importer: importerFrom{ld, meta.Dir},
		Sizes:    ld.sizes,
		Error:    func(err error) { checkErrs = append(checkErrs, err) },
	}
	tpkg, _ := conf.Check(meta.ImportPath, ld.fset, files, info)
	if len(checkErrs) > 0 {
		return nil, fmt.Errorf("lintcore: type-check %s: %v", meta.ImportPath, checkErrs[0])
	}
	if _, ok := ld.pkgs[meta.ImportPath]; !ok {
		ld.pkgs[meta.ImportPath] = tpkg
	}
	return &Package{
		ImportPath: meta.ImportPath,
		Dir:        meta.Dir,
		Imports:    ld.resolvedImports(meta),
		Fset:       ld.fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// resolvedImports returns meta's direct imports with vendor mapping applied.
func (ld *loader) resolvedImports(meta *listPkg) []string {
	imports := make([]string, 0, len(meta.Imports))
	for _, imp := range meta.Imports {
		if mapped, ok := meta.ImportMap[imp]; ok {
			imp = mapped
		}
		imports = append(imports, imp)
	}
	return imports
}

// shape returns a dependency's exported shape, type-checking it
// (IgnoreFuncBodies) on first use.
func (ld *loader) shape(path string) (*types.Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, err := ld.shapeCheck(path)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = pkg
	return pkg, nil
}

func (ld *loader) shapeCheck(path string) (*types.Package, error) {
	meta, ok := ld.metas[path]
	if !ok {
		return nil, fmt.Errorf("lintcore: import %q not in go list dependency set", path)
	}
	files, err := ld.parseFiles(meta, false)
	if err != nil {
		return nil, err
	}
	var checkErrs []error
	conf := &types.Config{
		Importer:         importerFrom{ld, meta.Dir},
		Sizes:            ld.sizes,
		IgnoreFuncBodies: true,
		Error:            func(err error) { checkErrs = append(checkErrs, err) },
	}
	tpkg, _ := conf.Check(meta.ImportPath, ld.fset, files, nil)
	if len(checkErrs) > 0 {
		return nil, fmt.Errorf("lintcore: type-check dependency %s: %v", path, checkErrs[0])
	}
	return tpkg, nil
}

// importerFrom adapts the loader to types.ImporterFrom for one importing
// package directory: srcDir's ImportMap rewrites vendored standard-library
// import paths (e.g. net's "golang.org/x/net/dns/dnsmessage") to their
// actual location. go/types passes the importing file's directory as
// srcDir, which for generated dependency trees is the package directory;
// binding the meta at construction keeps the lookup correct even when
// go/types passes an empty srcDir.
type importerFrom struct {
	ld     *loader
	srcDir string
}

func (im importerFrom) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, im.srcDir, 0)
}

func (im importerFrom) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if srcDir == "" {
		srcDir = im.srcDir
	}
	if from, ok := im.ld.byDir[srcDir]; ok {
		if mapped, ok := from.ImportMap[path]; ok {
			path = mapped
		}
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return im.ld.shape(path)
}
