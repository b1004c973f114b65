// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against // want annotations — the offline counterpart
// of golang.org/x/tools/go/analysis/analysistest, same fixture layout and
// comment syntax.
//
// A fixture line carrying `// want "re1" "re2"` must receive diagnostics
// matching every listed regexp, and every diagnostic must be claimed by
// some want on its line — unexpected findings and unmatched expectations
// both fail the test.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"optimus/internal/lint/analysis"
	"optimus/internal/lint/loader"
)

// Run loads testdata/src/<pkg> for each named fixture package, applies
// the analyzer, and asserts the want annotations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l := loader.New()
	for _, pkg := range pkgs {
		runPkg(t, l, filepath.Join(testdata, "src", pkg), pkg, a)
	}
}

// TestData returns the absolute testdata directory of the calling test's
// package, mirroring upstream's helper.
func TestData() string {
	abs, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return abs
}

type lineKey struct {
	file string
	line int
}

func runPkg(t *testing.T, l *loader.Loader, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	p, err := l.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	got := make(map[lineKey][]string)
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       p.Fset,
		Files:      p.Files,
		Pkg:        p.Pkg,
		TypesInfo:  p.TypesInfo,
		TypesSizes: loader.Sizes(),
		Report: func(d analysis.Diagnostic) {
			pos := p.Fset.Position(d.Pos)
			k := lineKey{pos.Filename, pos.Line}
			got[k] = append(got[k], d.Message)
		},
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer error: %v", pkgPath, err)
	}

	want := wantAnnotations(t, p)

	// Every want must be satisfied by a diagnostic on its line.
	for k, res := range want {
		for _, re := range res {
			matched := false
			for _, msg := range got[k] {
				if re.MatchString(msg) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: no diagnostic matching %q (got %v)", k.file, k.line, re, got[k])
			}
		}
	}
	// Every diagnostic must be claimed by a want on its line.
	for k, msgs := range got {
		for _, msg := range msgs {
			claimed := false
			for _, re := range want[k] {
				if re.MatchString(msg) {
					claimed = true
					break
				}
			}
			if !claimed {
				t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, msg)
			}
		}
	}
}

// wantAnnotations extracts the `// want "..."` expectations per line.
func wantAnnotations(t *testing.T, p *loader.Package) map[lineKey][]*regexp.Regexp {
	t.Helper()
	out := make(map[lineKey][]*regexp.Regexp)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				res, err := parseWants(rest)
				if err != nil {
					t.Fatalf("%s:%d: bad want annotation: %v", pos.Filename, pos.Line, err)
				}
				out[k] = append(out[k], res...)
			}
		}
	}
	return out
}

var wantPattern = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func parseWants(s string) ([]*regexp.Regexp, error) {
	matches := wantPattern.FindAllString(s, -1)
	if len(matches) == 0 {
		return nil, fmt.Errorf("no quoted regexp in %q", s)
	}
	out := make([]*regexp.Regexp, 0, len(matches))
	for _, m := range matches {
		unq, err := strconv.Unquote(m)
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(unq)
		if err != nil {
			return nil, err
		}
		out = append(out, re)
	}
	return out, nil
}
