// Package lintcore is the driver core for dtnlint, the repository's static
// invariant checker. It mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Reportf) but is implemented entirely on the standard
// library's go/ast and go/types, because this module builds offline and must
// not pull external dependencies. An analyzer written against lintcore ports
// to the upstream framework by renaming imports.
//
// The driver adds one facility the upstream multichecker leaves to
// third parties: source-level suppression. A diagnostic is suppressed by a
//
//	//lint:allow <analyzer>[,<analyzer>...] -- <justification>
//
// comment on the flagged line or the line directly above it. The
// justification after " -- " is mandatory: an allow without one is itself
// reported as a diagnostic, so every escape hatch in the tree carries its
// reasoning next to the code it excuses. See DESIGN.md §10 for the catalog
// of enforced invariants and the sanctioned allow sites.
package lintcore

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker: a name (used in diagnostics and in
// //lint:allow comments), documentation, and a Run function applied to one
// package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Pos locates the violation.
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Fact is one exported piece of cross-package knowledge: an analyzer
// observation about a function (or other object) of one package, made
// available to the same analyzer when it later runs over packages that
// import it. Each analyzer defines its own Kind/Detail vocabulary (e.g.
// lockorder exports {Kind: "acquires", Detail: lock key} facts keyed by the
// qualified function name).
type Fact struct {
	// Analyzer names the exporting analyzer; facts are only visible to the
	// analyzer that exported them, mirroring x/tools fact scoping.
	Analyzer string
	// Key identifies the object the fact describes, conventionally the
	// types.Func FullName (e.g. "(*replidtn/internal/store.Store).Put").
	Key string
	// Kind is the analyzer-defined fact class.
	Kind string
	// Detail is the analyzer-defined payload.
	Detail string
}

// FuncKey returns the canonical fact key for a function or method: its
// fully qualified name, stable across packages.
func FuncKey(fn *types.Func) string { return fn.FullName() }

// Pass carries one analyzer's view of one type-checked package, mirroring
// analysis.Pass, plus the lintcore fact surface: facts exported by the same
// analyzer on the package's (transitive, in-module) dependencies are
// visible through DepFactsOfKind and AllDepFacts, and ExportFact publishes
// facts about this package's objects for future dependents.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags    *[]Diagnostic
	facts    *[]Fact
	depFacts map[string][]Fact // key → facts from dependencies, this analyzer only
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact publishes a fact about an object of this package, visible to
// this analyzer when it runs over packages importing this one.
func (p *Pass) ExportFact(key, kind, detail string) {
	if p.facts == nil {
		return
	}
	*p.facts = append(*p.facts, Fact{Analyzer: p.Analyzer.Name, Key: key, Kind: kind, Detail: detail})
}

// DepFactsOfKind returns the facts of the given kind this analyzer exported
// about key (a FuncKey) when it analyzed the package's dependencies. Nil when
// the key's package was outside the analysis set (the standard library, or a
// package not matched by the lint patterns) — analyzers must degrade
// gracefully.
func (p *Pass) DepFactsOfKind(key, kind string) []Fact {
	var out []Fact
	for _, f := range p.depFacts[key] {
		if f.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}

// AllDepFacts returns every dependency fact of the given kind this analyzer
// exported, across all keys, sorted by key then detail for deterministic
// iteration. Used by whole-graph analyzers (lockorder folds dependency
// lock-order edges into the package's graph regardless of which function
// they came from).
func (p *Pass) AllDepFacts(kind string) []Fact {
	var out []Fact
	for _, facts := range p.depFacts {
		for _, f := range facts {
			if f.Kind == kind {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// allowName is the pseudo-analyzer under which malformed //lint:allow
// comments are reported; it cannot itself be suppressed.
const allowName = "lintallow"

// allowMark is one parsed //lint:allow comment.
type allowMark struct {
	analyzers map[string]bool
	line      int
	file      string
}

// parseAllows extracts the //lint:allow marks from a package's files and
// reports malformed ones (missing justification, unknown analyzer name)
// as diagnostics so they fail the lint run rather than silently excusing
// nothing — or worse, everything.
func parseAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) ([]allowMark, []Diagnostic) {
	var marks []allowMark
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: allowName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				names, reason, justified := strings.Cut(body, " -- ")
				if !justified || strings.TrimSpace(reason) == "" {
					report(c.Pos(), "allow comment needs a justification: //lint:allow <analyzer> -- <why>")
					continue
				}
				mark := allowMark{
					analyzers: make(map[string]bool),
					line:      fset.Position(c.Pos()).Line,
					file:      fset.Position(c.Pos()).Filename,
				}
				for _, name := range strings.Split(strings.TrimSpace(names), ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					if !known[name] {
						report(c.Pos(), "allow names unknown analyzer %q", name)
						continue
					}
					mark.analyzers[name] = true
				}
				if len(mark.analyzers) > 0 {
					marks = append(marks, mark)
				}
			}
		}
	}
	return marks, diags
}

// suppress drops every diagnostic covered by an allow mark: same file, same
// analyzer, and located on the mark's line or the line directly below it
// (so a mark works both trailing the flagged statement and standing alone
// above it).
func suppress(diags []Diagnostic, marks []allowMark) []Diagnostic {
	if len(marks) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		allowed := false
		for _, m := range marks {
			if m.file == d.Pos.Filename && m.analyzers[d.Analyzer] &&
				(d.Pos.Line == m.line || d.Pos.Line == m.line+1) {
				allowed = true
				break
			}
		}
		if !allowed {
			kept = append(kept, d)
		}
	}
	return kept
}

// analyzePackage applies every analyzer to one type-checked package.
// depFacts supplies, per analyzer name, the facts that analyzer exported on
// the package's dependencies. The returned diagnostics have the package's
// allow marks applied; the returned facts are this package's exports.
func analyzePackage(pkg *Package, analyzers []*Analyzer, depFacts func(analyzer string) map[string][]Fact) ([]Diagnostic, []Fact, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	var facts []Fact
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			diags:     &diags,
			facts:     &facts,
		}
		if depFacts != nil {
			pass.depFacts = depFacts(a.Name)
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("lintcore: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	marks, bad := parseAllows(pkg.Fset, pkg.Files, known)
	diags = append(suppress(diags, marks), bad...)
	return diags, facts, nil
}

// factStore accumulates each analyzed package's exported facts, for lookup
// by later (importing) packages.
type factStore struct {
	byPkg map[string][]Fact
}

func newFactStore() *factStore {
	return &factStore{byPkg: make(map[string][]Fact)}
}

func (s *factStore) add(importPath string, facts []Fact) {
	s.byPkg[importPath] = facts
}

// view builds the per-analyzer dependency-fact lookup for a package whose
// transitive in-module dependencies are deps.
func (s *factStore) view(deps []string) func(analyzer string) map[string][]Fact {
	merged := make(map[string]map[string][]Fact) // analyzer → key → facts
	for _, dep := range deps {
		for _, f := range s.byPkg[dep] {
			byKey := merged[f.Analyzer]
			if byKey == nil {
				byKey = make(map[string][]Fact)
				merged[f.Analyzer] = byKey
			}
			byKey[f.Key] = append(byKey[f.Key], f)
		}
	}
	return func(analyzer string) map[string][]Fact { return merged[analyzer] }
}

// sortDiagnostics orders diagnostics by position, then analyzer name.
func sortDiagnostics(all []Diagnostic) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// topoOrder returns pkgs sorted so every package follows its in-set
// dependencies (import-path ties broken alphabetically), which is the order
// fact export requires.
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	var order []*Package
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.ImportPath] != 0 {
			return
		}
		state[p.ImportPath] = 1
		deps := append([]string(nil), p.Imports...)
		sort.Strings(deps)
		for _, imp := range deps {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	for _, p := range sorted {
		visit(p)
	}
	return order
}

// transitiveImports returns the transitive in-set dependencies of p.
func transitiveImports(p *Package, byPath map[string]*Package) []string {
	seen := make(map[string]bool)
	var walk func(imports []string)
	walk = func(imports []string) {
		for _, imp := range imports {
			dep, ok := byPath[imp]
			if !ok || seen[imp] {
				continue
			}
			seen[imp] = true
			walk(dep.Imports)
		}
	}
	walk(p.Imports)
	deps := make([]string, 0, len(seen))
	for imp := range seen {
		deps = append(deps, imp)
	}
	sort.Strings(deps)
	return deps
}

// Run applies every analyzer to every package — in dependency order, so an
// analyzer's facts about a package are visible when its importers are
// analyzed — and returns the surviving diagnostics sorted by position.
// Allow marks are parsed per package and applied to that package's
// diagnostics only.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	facts := newFactStore()
	var all []Diagnostic
	for _, pkg := range topoOrder(pkgs) {
		diags, exported, err := analyzePackage(pkg, analyzers, facts.view(transitiveImports(pkg, byPath)))
		if err != nil {
			return nil, err
		}
		facts.add(pkg.ImportPath, exported)
		all = append(all, diags...)
	}
	sortDiagnostics(all)
	return all, nil
}
