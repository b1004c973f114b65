// Package directive parses the lint annotation vocabulary:
//
//	//lint:deterministic <why>   — this nondeterminism source is deliberate
//	//lint:floateq <why>         — this exact float comparison is deliberate
//	//lint:alloc <why>           — this allocation in a hot path is deliberate
//	//lint:nokey <why>           — this sweep.Point field is not a sweep axis
//	//lint:export <why>          — this exported declaration stays exported
//	                               though no other package calls it
//	//optimus:hotpath            — function must stay allocation-free
//
// A //lint: directive suppresses a finding only at its own site: it must
// sit on the reported line or alone on the line immediately above, and it
// must carry a justification — a bare directive is itself a finding, so
// suppressions stay self-documenting. //lint:export is read by
// TestNoDeadExports in cmd/optimuslint, a whole-module test rather than
// an analyzer; on a doc comment it goes on the comment's last line.
// //optimus:hotpath is not a suppression but an opt-in pragma in a
// function's doc comment.
package directive

import (
	"go/ast"
	"go/token"
	"strings"

	"optimus/internal/lint/analysis"
)

// Prefix is the suppression-comment namespace.
const Prefix = "lint:"

// At looks up the //lint:<name> directive governing pos: on the same
// line, or alone on the line immediately above. It reports whether the
// directive is present and whether it carries a justification.
//
//lint:export cmd/optimuslint's whole-module dead-export test reads //lint:export through it
func At(fset *token.FileSet, file *ast.File, pos token.Pos, name string) (reason string, found bool) {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			if r, ok := parse(c.Text, name); ok {
				return r, true
			}
		}
	}
	return "", false
}

// Suppressed reports whether the finding at pos is governed by a
// //lint:<name> directive. A bare directive still suppresses the original
// finding but is reported itself — a suppression without a recorded
// reason is unreviewable, so the lint stays red until the why is written
// down.
func Suppressed(pass *analysis.Pass, pos token.Pos, name string) bool {
	f := fileFor(pass.Files, pos)
	if f == nil {
		return false
	}
	reason, ok := At(pass.Fset, f, pos, name)
	if !ok {
		return false
	}
	if reason == "" {
		pass.Reportf(pos, "bare //%s%s directive: add a justification", Prefix, name)
	}
	return true
}

// fileFor returns the file in files containing pos, or nil.
func fileFor(files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// HasPragma reports whether a doc comment carries the //optimus:<name>
// pragma (e.g. optimus:hotpath on a function declaration).
func HasPragma(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		t := strings.TrimPrefix(c.Text, "//")
		t = strings.TrimSuffix(t, "*/")
		t = strings.TrimSpace(strings.TrimPrefix(t, "/*"))
		if t == "optimus:"+name || strings.HasPrefix(t, "optimus:"+name+" ") {
			return true
		}
	}
	return false
}

// parse extracts the justification from one comment if it is the named
// lint directive.
func parse(text, name string) (reason string, ok bool) {
	t := strings.TrimPrefix(text, "//")
	t = strings.TrimSpace(t)
	want := Prefix + name
	if t == want {
		return "", true
	}
	if rest, ok := strings.CutPrefix(t, want+" "); ok {
		return strings.TrimSpace(rest), true
	}
	return "", false
}
