// Command splicelint runs the repository's static-analysis suite: the
// determinism, mutexguard, golifecycle, wireerr, floatcmp, allocfree,
// and atomicguard analyzers from internal/analysis, built entirely on
// the stdlib go/* packages.
//
// Usage:
//
//	splicelint [-json] [-enable a,b] [-disable a,b] [-deadignores] [-list] [patterns...]
//
// Patterns default to ./... relative to the module root; they are
// always expanded to their module-internal dependency closure so the
// cross-package checks (determinism, allocfree, atomicguard) see every
// helper package the named packages reach. Exit status is 0 when
// clean, 1 when findings were reported, 2 on usage or load errors.
// Findings can be silenced in source with
//
//	//lint:ignore analyzer reason
//
// on, or directly above, the offending line; a suppression without a
// reason is itself reported. With -deadignores, well-formed
// //lint:ignore comments that silenced nothing are reported too (only
// meaningful with the full analyzer set: a disabled analyzer makes its
// suppressions look dead).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"p2psplice/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("splicelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	deadIgnores := fs.Bool("deadignores", false, "also report //lint:ignore comments that suppress nothing")
	list := fs.Bool("list", false, "list analyzers and exit")
	modRoot := fs.String("mod", "", "module root (default: walk up from cwd to go.mod)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: splicelint [flags] [package patterns]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "splicelint:", err)
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root := *modRoot
	if root == "" {
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "splicelint:", err)
			return 2
		}
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "splicelint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "splicelint:", err)
		return 2
	}
	pkgs = loader.Closure(pkgs)

	res, err := analysis.RunResult(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "splicelint:", err)
		return 2
	}
	findings := res.Findings
	findings = append(findings, analysis.BadSuppressions(pkgs)...)
	if *deadIgnores {
		findings = append(findings, res.DeadIgnores...)
	}
	for i := range findings {
		findings[i].File = relPath(findings[i].File)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		return findings[i].Line < findings[j].Line
	})

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "splicelint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "splicelint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable / -disable to the registry.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	set := func(csv string) (map[string]bool, error) {
		if csv == "" {
			return nil, nil
		}
		m := map[string]bool{}
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if analysis.ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			m[name] = true
		}
		return m, nil
	}
	en, err := set(enable)
	if err != nil {
		return nil, err
	}
	dis, err := set(disable)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range analysis.All() {
		if en != nil && !en[a.Name] {
			continue
		}
		if dis[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// relPath shortens absolute finding paths relative to the cwd.
func relPath(p string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return p
	}
	if rel, err := filepath.Rel(cwd, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}
