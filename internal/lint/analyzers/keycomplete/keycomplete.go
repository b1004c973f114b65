// Package keycomplete enforces the sweep memo-cache identity invariant:
// every field of sweep.Point — every sweep axis — must be folded into
// both of the candidate's identities: the canonical string key and the
// comparable struct the engine deduplicates on.
//
// The memo cache (and the on-disk cache it persists to) deduplicates
// evaluations by Point.Key; a field that shapes the evaluation but is
// missing from the key makes two different candidates alias one memo
// entry and silently serves the wrong metrics. That bug class is exactly
// why the cost-model version bump exists, and it has historically been
// caught only when someone remembered to extend the hand-written key
// test. The engine also deduplicates the grid on the struct identity
// (ident), without rendering the key; a field missing from it would
// silently drop a distinct candidate as a duplicate. This analyzer makes
// either omission a lint failure instead: for each identity it walks
// every function statically reachable from its builders (Key for the
// string key; ident and tokensOf, which derives the tokens ident
// compares, for the struct identity — so token helpers like modelToken
// count) and reports any Point field never read along the
// way. A package without the struct identity's builders is checked
// against the string key alone.
//
// A field that is deliberately not an axis carries //lint:nokey with a
// justification.
package keycomplete

import (
	"go/ast"
	"go/types"

	"optimus/internal/lint/analysis"
	"optimus/internal/lint/directive"
)

// StructName names the struct, KeyFuncs the roots of its string key and
// IdentFuncs those of its struct identity. The analyzer triggers on any
// package declaring the struct and a root, so fixtures exercise the real
// code path.
var (
	StructName = "Point"
	KeyFuncs   = []string{"Key"}
	IdentFuncs = []string{"ident", "tokensOf"}
)

// Analyzer is the key-completeness check.
var Analyzer = &analysis.Analyzer{
	Name: "keycomplete",
	Doc:  "every sweep.Point field must be referenced from Key and from ident/tokensOf (directly or via a helper) or carry //lint:nokey",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	obj := pass.Pkg.Scope().Lookup(StructName)
	if obj == nil {
		return nil, nil
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}

	// Index every function declaration in the package by its type object,
	// so static calls resolve to bodies we can walk.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// Point's fields by identity, for coverage matching.
	isField := make(map[*types.Var]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		isField[st.Field(i)] = true
	}

	for _, id := range []struct {
		roots []string
		harm  string
	}{
		{KeyFuncs, "would alias one memo entry"},
		{IdentFuncs, "would be deduplicated as one"},
	} {
		covered, ok := reach(pass, decls, isField, id.roots)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if covered[f] || directive.Suppressed(pass, f.Pos(), "nokey") {
				continue
			}
			pass.Reportf(f.Pos(), "%s.%s is not folded into %v: two candidates differing only in it %s (annotate //lint:nokey if it is not an axis)",
				StructName, f.Name(), id.roots, id.harm)
		}
	}
	return nil, nil
}

// reach walks every same-package function statically reachable from the
// functions named roots (methods or free functions) and returns the
// struct fields read along the way; ok is false when no root exists.
func reach(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, isField map[*types.Var]bool, roots []string) (covered map[*types.Var]bool, ok bool) {
	var work []*ast.FuncDecl
	seen := make(map[*types.Func]bool)
	for fn, fd := range decls {
		for _, name := range roots {
			if fn.Name() == name {
				work = append(work, fd)
				seen[fn] = true
			}
		}
	}
	if len(work) == 0 {
		return nil, false
	}
	covered = make(map[*types.Var]bool)
	for len(work) > 0 {
		fd := work[0]
		work = work[1:]
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok && isField[v] {
						covered[v] = true
					}
				}
			case *ast.CallExpr:
				if fn := callee(pass, n); fn != nil && fn.Pkg() == pass.Pkg && !seen[fn] {
					if fd, ok := decls[fn]; ok {
						seen[fn] = true
						work = append(work, fd)
					}
				}
			}
			return true
		})
	}
	return covered, true
}

// callee resolves a call expression to its static *types.Func target
// (free function or method), or nil for dynamic calls.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
