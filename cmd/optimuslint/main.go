// Command optimuslint is the multichecker driver for the simulator's
// invariant analyzers (see internal/lint): determinism, keycomplete,
// hotpath and floateq encode the correctness contracts the test suite
// otherwise guards only dynamically, plus offline ports of the
// non-default vet passes (fieldalignment, nilness, shadow, unusedwrite).
//
// Usage:
//
//	optimuslint [-only a,b] [packages]
//
// Packages default to ./... relative to the working directory. Exit
// status: 0 clean, 1 findings, 2 load/usage error — the same contract as
// go vet, so `make lint` composes into `make check` and CI.
//
// The dead-export rule (no exported identifier under internal/ without a
// caller outside its own package) needs the whole module in view, so it
// is not an analyzer: TestNoDeadExports in this package's tests runs it
// over ./..., under `go test ./cmd/optimuslint` and so `make check`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"optimus/internal/lint/analysis"
	"optimus/internal/lint/analyzers/determinism"
	"optimus/internal/lint/analyzers/extravet"
	"optimus/internal/lint/analyzers/floateq"
	"optimus/internal/lint/analyzers/hotpath"
	"optimus/internal/lint/analyzers/keycomplete"
	"optimus/internal/lint/loader"
)

// suite is every analyzer the driver runs, in reporting order.
var suite = []*analysis.Analyzer{
	determinism.Analyzer,
	keycomplete.Analyzer,
	hotpath.Analyzer,
	floateq.Analyzer,
	extravet.FieldAlignment,
	extravet.Nilness,
	extravet.Shadow,
	extravet.UnusedWrite,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	enabled, err := filterSuite(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimuslint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimuslint:", err)
		os.Exit(2)
	}
	n, err := run(os.Stdout, cwd, patterns, enabled)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimuslint:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

func filterSuite(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// run loads every matched package once and applies the enabled analyzers,
// printing findings in deterministic (position, analyzer) order. It
// returns the number of findings.
func run(w io.Writer, dir string, patterns []string, enabled []*analysis.Analyzer) (int, error) {
	pkgs, err := load(loader.New(), dir, patterns)
	if err != nil {
		return 0, err
	}
	return analyze(w, pkgs, enabled)
}

// load expands patterns relative to dir and type-checks every matched
// package with l, in import-path order.
func load(l *loader.Loader, dir string, patterns []string) ([]*loader.Package, error) {
	matched, err := loader.Expand(dir, patterns)
	if err != nil {
		return nil, err
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	pkgs := make([]*loader.Package, len(matched))
	for i := range matched {
		if pkgs[i], err = l.LoadDir(matched[i].Dir, matched[i].Path); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// analyze applies the enabled analyzers to pkgs and prints their findings
// in deterministic (position, analyzer) order.
func analyze(w io.Writer, pkgs []*loader.Package, enabled []*analysis.Analyzer) (int, error) {
	sizes := loader.Sizes()

	type finding struct {
		file      string
		line, col int
		analyzer  string
		msg       string
	}
	var findings []finding

	for _, p := range pkgs {
		for _, a := range enabled {
			a := a
			pass := &analysis.Pass{
				Analyzer:   a,
				Fset:       p.Fset,
				Files:      p.Files,
				Pkg:        p.Pkg,
				TypesInfo:  p.TypesInfo,
				TypesSizes: sizes,
				Report: func(d analysis.Diagnostic) {
					pos := p.Fset.Position(d.Pos)
					findings = append(findings, finding{pos.Filename, pos.Line, pos.Column, a.Name, d.Message})
				},
			}
			if _, err := a.Run(pass); err != nil {
				return 0, fmt.Errorf("%s on %s: %w", a.Name, p.Path, err)
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.analyzer < b.analyzer
	})
	for _, f := range findings {
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", f.file, f.line, f.col, f.analyzer, f.msg)
	}
	return len(findings), nil
}
