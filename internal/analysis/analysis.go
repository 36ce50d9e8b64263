// Package analysis is a stdlib-only static-analysis framework for this
// module, plus the splicelint analyzers that enforce its correctness
// invariants: simulation determinism (a deterministic package set closed
// under imports), mutex guard discipline, goroutine lifecycle hygiene,
// wire-level error handling, float comparison safety, and atomic access
// discipline. It deliberately uses only go/ast, go/parser, go/token and
// go/types so the module keeps zero external dependencies.
//
// The framework is a miniature of golang.org/x/tools/go/analysis
// without its facts: splicelint always loads the whole module into one
// process, so each Analyzer runs once over the loaded packages its Match
// accepts, in dependency order (imports first). An analyzer that needs
// module-wide knowledge, as atomicguard does, keeps it in its own maps
// for the one run.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects the packages its Match
// accepts and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// suppression comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Match selects the packages Run sees, by import path. Nil means
	// every package. Run learns nothing outside them, so it can report
	// nothing there either.
	Match func(pkgPath string) bool
	// Run performs the analysis over the whole pass.
	Run func(*Pass) error
}

// Pass carries the loaded, type-checked module to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs holds the packages under analysis that the analyzer's Match
	// accepts, each after the packages it imports.
	Pkgs []*Package
	// ModulePath is the import-path prefix identifying module-internal
	// packages.
	ModulePath string

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
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

// Result is the full outcome of one RunResult.
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

// RunResult runs each analyzer once over the packages its Match
// accepts, which it puts in dependency order first. Suppression comments
// are collected across all packages and applied to the combined
// findings, so a finding is suppressible at its site whichever analyzer
// reported it.
func RunResult(analyzers []*Analyzer, pkgs []*Package) (*Result, error) {
	pkgs = depOrder(pkgs)
	fset, modPath := fsetOf(pkgs), modulePathOf(pkgs)
	sup := collectSuppressions(pkgs)
	var all []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Pkgs: pkgs, ModulePath: modPath}
		if a.Match != nil {
			pass.Pkgs = nil
			for _, pkg := range pkgs {
				if a.Match(pkg.Path) {
					pass.Pkgs = append(pass.Pkgs, pkg)
				}
			}
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		all = append(all, pass.findings...)
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

// depOrder sorts packages so every package follows the packages it
// imports (restricted to the given set). The order is deterministic:
// ties are broken by import path, so every analyzer sees the packages in
// one order however they were loaded.
func depOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		if _, dup := byPath[p.Path]; dup {
			continue
		}
		byPath[p.Path] = p
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	var out []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		pkg, ok := byPath[path]
		if !ok || state[path] != 0 {
			return
		}
		state[path] = 1
		imps := pkg.Types.Imports()
		ipaths := make([]string, 0, len(imps))
		for _, imp := range imps {
			ipaths = append(ipaths, imp.Path())
		}
		sort.Strings(ipaths)
		for _, ip := range ipaths {
			visit(ip)
		}
		state[path] = 2
		out = append(out, pkg)
	}
	for _, p := range paths {
		visit(p)
	}
	return out
}

// moduleInternal reports whether path belongs to this module. The
// module path is recovered from the packages under analysis rather than
// go.mod so fixture packages loaded under fake p2psplice/... paths
// behave like module code.
func moduleInternal(modPath, path string) bool {
	return path == modPath || strings.HasPrefix(path, modPath+"/")
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
