// Package analysis is a stdlib-only static-analysis framework for this
// module, plus the splicelint analyzers that enforce its correctness
// invariants: simulation determinism (direct and through call chains),
// mutex guard discipline, goroutine lifecycle hygiene, wire-level error
// handling, float comparison safety, hot-path allocation freedom, and
// atomic access discipline. It deliberately uses only go/ast, go/parser,
// go/token and go/types so the module keeps zero external dependencies.
//
// The framework is a miniature of golang.org/x/tools/go/analysis: each
// Analyzer inspects one type-checked package through a Pass, and
// analyzers that declare FactTypes participate in the cross-package
// facts engine — the engine visits packages in dependency order
// (imports first), an analyzer exports typed facts about functions or
// objects while visiting one package, and imports them while visiting
// the packages that depend on it. That is what lets determinism follow a
// call chain out of a deterministic package, through any number of
// helper packages, to a wall-clock read.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// suppression comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Match restricts *reporting* to packages whose import path it
	// accepts. Nil means every package. An analyzer with FactTypes is
	// still run over non-matching packages so it can compute facts
	// there; only its findings in those packages are discarded.
	Match func(pkgPath string) bool
	// FactTypes declares the fact types the analyzer exports and
	// imports, one zero value per type (pointers). Declaring any fact
	// type opts the analyzer into whole-module dependency-order
	// analysis.
	FactTypes []Fact
	// Run performs the analysis on one package.
	Run func(*Pass) error
	// RunEnd, if set, runs once after every package has been analyzed,
	// with access to the full fact store. It is where whole-module
	// checks that need both directions of the import graph (such as
	// atomicguard) report their findings.
	RunEnd func(*EndPass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer, mirroring golang.org/x/tools/go/analysis.Pass in miniature.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ModulePath is the import-path prefix identifying module-internal
	// packages (facts only exist for those).
	ModulePath string

	findings *[]Finding
	facts    *factStore
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportObjectFact attaches fact to obj for later passes of the same
// analyzer. The fact type must appear in the analyzer's FactTypes.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.exportObject(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact of fact's concrete type previously
// exported on obj into fact, reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.importObject(p.Analyzer, obj, fact)
}

// EndPass is the whole-module view handed to RunEnd after every
// package's Run has completed.
type EndPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs holds every analyzed package in dependency order.
	Pkgs       []*Package
	ModulePath string

	findings *[]Finding
	facts    *factStore
}

// Reportf records a finding at pos, which may lie in any analyzed
// package. Suppressions at the finding's file:line apply as usual.
func (p *EndPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ObjectFacts returns every object fact this analyzer exported, in
// deterministic (position) order.
func (p *EndPass) ObjectFacts() []ObjectFact {
	return p.facts.objectFacts(p.Analyzer)
}

// ImportObjectFact copies the fact previously exported on obj into
// fact, reporting whether one existed.
func (p *EndPass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.importObject(p.Analyzer, obj, fact)
}

// Finding is one reported problem.
type Finding struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String formats the finding in the human-readable driver format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Result is the full outcome of one engine run.
type Result struct {
	// Findings are the surviving (unsuppressed) findings, sorted by
	// position.
	Findings []Finding
	// DeadIgnores lists well-formed //lint:ignore comments that
	// suppressed no finding of any analyzer in this run. They are only
	// meaningful when every analyzer was enabled — a disabled analyzer
	// makes its suppressions look dead.
	DeadIgnores []Finding
}

// RunResult analyzes the packages in dependency order. For each
// package, every analyzer runs if its Match accepts the package path or
// if it declares FactTypes (facts must be computed everywhere); only
// findings in Match-accepted packages are kept. After all packages,
// each analyzer's RunEnd runs with the whole-module fact store.
// Suppression comments are collected across all packages and applied to
// the combined findings, so a RunEnd finding in package A is
// suppressible at its site even though it was discovered while
// finishing the whole-module pass.
func RunResult(analyzers []*Analyzer, pkgs []*Package) (*Result, error) {
	pkgs = depOrder(pkgs)
	modPath := modulePathOf(pkgs)
	facts := newFactStore()
	sup := collectSuppressions(pkgs)
	var all []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			matched := a.Match == nil || a.Match(pkg.Path)
			if !matched && len(a.FactTypes) == 0 {
				continue
			}
			var found []Finding
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				ModulePath: modPath,
				findings:   &found,
				facts:      facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			if matched {
				all = append(all, found...)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunEnd == nil {
			continue
		}
		var found []Finding
		end := &EndPass{
			Analyzer:   a,
			Fset:       fsetOf(pkgs),
			Pkgs:       pkgs,
			ModulePath: modPath,
			findings:   &found,
			facts:      facts,
		}
		if err := a.RunEnd(end); err != nil {
			return nil, fmt.Errorf("%s: finish: %w", a.Name, err)
		}
		all = append(all, found...)
	}

	var kept []Finding
	for _, f := range all {
		if sup.suppress(f) {
			continue
		}
		f.File = f.Pos.Filename
		f.Line = f.Pos.Line
		f.Col = f.Pos.Column
		kept = append(kept, f)
	}
	sortFindings(kept)
	dead := sup.dead()
	sortFindings(dead)
	return &Result{Findings: kept, DeadIgnores: dead}, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Col != fs[j].Col {
			return fs[i].Col < fs[j].Col
		}
		return fs[i].Analyzer < fs[j].Analyzer
	})
}

// modulePathOf recovers the module path from the first package path
// segment ("p2psplice/internal/sim" -> "p2psplice"); fixture packages
// loaded under fake module-internal paths therefore behave like module
// code.
func modulePathOf(pkgs []*Package) string {
	for _, p := range pkgs {
		if i := strings.IndexByte(p.Path, '/'); i > 0 {
			return p.Path[:i]
		}
		return p.Path
	}
	return ""
}

func fsetOf(pkgs []*Package) *token.FileSet {
	for _, p := range pkgs {
		return p.Fset
	}
	return token.NewFileSet()
}

// supComment is one well-formed //lint:ignore comment; used records
// whether it silenced at least one finding during the run.
type supComment struct {
	pos   token.Position
	names []string
	used  bool
}

// suppressions indexes the comments by file name and by the lines they
// cover (the comment's own line and the line below it).
type suppressions struct {
	byLine map[string]map[int][]*supComment
	all    []*supComment
}

// collectSuppressions parses //lint:ignore comments across every
// package. The format is
//
//	//lint:ignore analyzer[,analyzer...] reason
//
// and the comment silences the named analyzers (or every analyzer, for
// the name "all") on its own line and on the line directly below, so it
// can sit either at the end of the offending line or just above it. A
// missing reason makes the suppression itself a finding, reported by
// the driver via BadSuppressions.
func collectSuppressions(pkgs []*Package) *suppressions {
	sup := &suppressions{byLine: map[string]map[int][]*supComment{}}
	for _, pkg := range pkgs {
		forEachIgnore(pkg.Fset, pkg.Files, func(pos token.Position, names []string, reason string) {
			if reason == "" {
				return // malformed: never silences anything
			}
			c := &supComment{pos: pos, names: names}
			sup.all = append(sup.all, c)
			byLine := sup.byLine[pos.Filename]
			if byLine == nil {
				byLine = map[int][]*supComment{}
				sup.byLine[pos.Filename] = byLine
			}
			byLine[pos.Line] = append(byLine[pos.Line], c)
			byLine[pos.Line+1] = append(byLine[pos.Line+1], c)
		})
	}
	return sup
}

// suppress reports whether a comment covers f, marking every covering
// comment as used.
func (s *suppressions) suppress(f Finding) bool {
	hit := false
	for _, c := range s.byLine[f.Pos.Filename][f.Pos.Line] {
		for _, name := range c.names {
			if name == "all" || name == f.Analyzer {
				c.used = true
				hit = true
			}
		}
	}
	return hit
}

// dead returns a finding for every comment that silenced nothing.
func (s *suppressions) dead() []Finding {
	var out []Finding
	for _, c := range s.all {
		if c.used {
			continue
		}
		out = append(out, Finding{
			Pos:      c.pos,
			File:     c.pos.Filename,
			Line:     c.pos.Line,
			Col:      c.pos.Column,
			Analyzer: "deadignore",
			Message: fmt.Sprintf("//lint:ignore %s suppresses no finding; delete the stale suppression",
				strings.Join(c.names, ",")),
		})
	}
	return out
}

// BadSuppressions reports //lint:ignore comments that lack a reason;
// an unexplained suppression is itself a finding so that silencing an
// analyzer always leaves a justification in the code.
func BadSuppressions(pkgs []*Package) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		forEachIgnore(pkg.Fset, pkg.Files, func(pos token.Position, names []string, reason string) {
			if reason != "" {
				return
			}
			out = append(out, Finding{
				Pos:      pos,
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: "suppression",
				Message:  "//lint:ignore comment needs a reason after the analyzer name(s)",
			})
		})
	}
	return out
}

// forEachIgnore invokes fn for every //lint:ignore comment.
func forEachIgnore(fset *token.FileSet, files []*ast.File, fn func(pos token.Position, names []string, reason string)) {
	const prefix = "//lint:ignore"
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, prefix))
				nameField, reason, _ := strings.Cut(rest, " ")
				if nameField == "" {
					continue
				}
				names := strings.Split(nameField, ",")
				fn(fset.Position(c.Pos()), names, strings.TrimSpace(reason))
			}
		}
	}
}

// matchPaths returns a Match function accepting packages whose import
// path equals, or is a sub-package of, one of the given paths.
func matchPaths(paths ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, p := range paths {
			if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
				return true
			}
		}
		return false
	}
}
