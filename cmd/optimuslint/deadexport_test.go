package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"optimus/internal/lint/directive"
	"optimus/internal/lint/loader"
)

// TestNoDeadExports keeps the exported surface under internal/ to what
// the rest of the program needs. Over the same whole-module load as
// TestSuiteCleanOnTree (cmd/, examples/ and the bench module count as
// callers, test files do not), it fails on
//
//	R1: an exported func, method, type, var or const that nothing
//	    references;
//	R2: an exported func or method that only its own package references.
//
// deadExports lists the exemptions. The rule needs every caller in view,
// so it is a test over ./... rather than a per-package analyzer.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	tr := loadTree(t)
	found, err := deadExports(tr.loader, tr.pkgs, tr.modPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s", f)
	}
}

// TestDeadExportsFixture pins each rule and each exemption on the
// fixture module in testdata/deadexport, whose ext/ directory is a
// second module that imports it the way bench/ imports optimus.
func TestDeadExportsFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a fixture module from source")
	}
	// The fixture is a module of its own, loaded from this package's
	// directory: its imports resolve in its own go.mod.
	l := loader.New()
	pkgs, err := load(l, filepath.Join("testdata", "deadexport"), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	found, err := deadExports(l, pkgs, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.rule+" "+f.name)
	}
	want := []string{
		"R1 fixture/internal/dead.Unused",
		"R1 fixture/internal/dead.UnusedType",
		"R1 fixture/internal/dead.TestOnly",
		"bare fixture/internal/dead.BareExport",
		"R1 fixture/internal/orphan.Orphan",
		"R1 fixture/internal/testsupport.Unneeded",
		"R1 fixture/internal/testsupport.Kit.Spare",
		"R2 fixture/internal/dead.Local",
		"R2 fixture/internal/dead.Holder.Local",
		"R2 fixture/internal/api.Hidden.Get",
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// exportFinding is one dead-export violation.
type exportFinding struct {
	pos  token.Position
	rule string // "R1", "R2" or "bare"
	name string // package path, then Type.Method or the identifier
}

func (f exportFinding) String() string {
	switch f.rule {
	case "R1":
		return fmt.Sprintf("%s: R1: %s is exported but nothing references it: delete it", f.pos, f.name)
	case "R2":
		return fmt.Sprintf("%s: R2: %s is exported but only its own package calls it: unexport it", f.pos, f.name)
	}
	return fmt.Sprintf("%s: bare //%sexport directive on %s: add a justification", f.pos, directive.Prefix, f.name)
}

// wellKnown are the method names of the standard interfaces the program
// satisfies without declaring them: a method of that name is called
// through the interface, which TypesInfo.Uses does not attribute to it.
var wellKnown = []string{"Error", "String", "MarshalJSON", "UnmarshalJSON", "Import", "ImportFrom"}

// deadExports applies R1 and R2 to the packages under modPath/internal,
// counting the non-test references of every package in pkgs, and returns
// the findings in package, file and line order. A package that only test
// files import is used through them, so for it alone the references of
// those test files, loaded through l, count too. Exempt are
//   - a method whose name belongs to an interface declared in pkgs or to
//     one of the wellKnown ones;
//   - a method of a type reachable from package modPath's exported API,
//     through aliases, fields, params and results;
//   - a declaration under a justified //lint:export directive.
func deadExports(l *loader.Loader, pkgs []*loader.Package, modPath string) ([]exportFinding, error) {
	refs := make(map[string]map[string]bool) // object key → referencing packages
	addRef := func(obj types.Object, from string) {
		if k := objKey(obj); k != "" {
			if refs[k] == nil {
				refs[k] = make(map[string]bool)
			}
			refs[k][from] = true
		}
	}
	ifaceMethods := make(map[string]bool)
	for _, name := range wellKnown {
		ifaceMethods[name] = true
	}
	imported := make(map[string]bool)        // by a non-test file
	testImports := make(map[string][]string) // package → its test files' imports
	var api *types.Package
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Uses {
			addRef(obj, p.Path)
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					iface := p.TypesInfo.Types[it].Type.(*types.Interface)
					for i := 0; i < iface.NumMethods(); i++ {
						ifaceMethods[iface.Method(i).Name()] = true
					}
				}
				return true
			})
		}
		for _, imp := range p.Pkg.Imports() {
			imported[imp.Path()] = true
		}
		if bp, err := build.Default.ImportDir(p.Dir, 0); err == nil {
			testImports[p.Path] = append(bp.TestImports, bp.XTestImports...)
		}
		if p.Path == modPath {
			api = p.Pkg
		}
	}
	prefix := modPath + "/internal/"
	testOnly := make(map[string]bool)
	for _, paths := range testImports {
		for _, path := range paths {
			if strings.HasPrefix(path, prefix) && !imported[path] {
				testOnly[path] = true
			}
		}
	}
	for _, p := range pkgs {
		if !slices.ContainsFunc(testImports[p.Path], func(path string) bool { return testOnly[path] }) {
			continue
		}
		uses, err := testUses(l, p.Dir, p.Path)
		if err != nil {
			return nil, err
		}
		for _, obj := range uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != p.Path && testOnly[obj.Pkg().Path()] {
				addRef(obj, p.Path)
			}
		}
	}
	reached := make(map[string]bool) // named types reachable from the API
	if api != nil {
		var r apiWalk = reached
		for _, name := range api.Scope().Names() {
			if obj := api.Scope().Lookup(name); obj.Exported() {
				r.visit(obj.Type())
			}
		}
	}

	var out []exportFinding
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, prefix) {
			continue
		}
		for _, f := range p.Files {
			for _, id := range exportedDecls(f) {
				obj := p.TypesInfo.Defs[id]
				key := objKey(obj)
				fn, isFunc := obj.(*types.Func)
				if isFunc && fn.Type().(*types.Signature).Recv() != nil &&
					(ifaceMethods[fn.Name()] || reached[recvKey(fn)]) {
					continue
				}
				users := refs[key]
				rule := ""
				switch {
				case len(users) == 0:
					rule = "R1"
				case isFunc && len(users) == 1 && users[p.Path]:
					rule = "R2"
				default:
					continue
				}
				// A bare directive replaces the finding it would suppress.
				if reason, ok := directive.At(p.Fset, f, id.Pos(), "export"); ok {
					if reason != "" {
						continue
					}
					rule = "bare"
				}
				out = append(out, exportFinding{p.Fset.Position(id.Pos()), rule, key})
			}
		}
	}
	return out, nil
}

// testUses type-checks the tests of the package in dir — the package with
// its in-package test files, and the external pkgPath_test package — and
// returns the objects they reference. The external package imports
// pkgPath without the in-package test files.
func testUses(l *loader.Loader, dir, pkgPath string) ([]types.Object, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var uses []types.Object
	for _, t := range []struct {
		path        string
		tests, with []string
	}{{pkgPath, bp.TestGoFiles, bp.GoFiles}, {pkgPath + "_test", bp.XTestGoFiles, nil}} {
		if len(t.tests) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range append(slices.Clip(t.with), t.tests...) {
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		cfg := types.Config{Importer: l}
		if _, err := cfg.Check(t.path, l.Fset, files, info); err != nil {
			return nil, fmt.Errorf("tests of %s: %w", pkgPath, err)
		}
		for _, obj := range info.Uses {
			uses = append(uses, obj)
		}
	}
	return uses, nil
}

// exportedDecls returns the identifiers of f's exported package-level
// funcs, methods, types, vars and consts.
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						ids = append(ids, s.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							ids = append(ids, n)
						}
					}
				}
			}
		}
	}
	return ids
}

// objKey names a package-level object or a method the same way in every
// copy of its package, a test build's included: "path.Name", or
// "path.Type.Method". It returns "" for anything else.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if fn.Type().(*types.Signature).Recv() != nil {
			return recvKey(fn) + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvKey names a method's receiver type as "path.Type".
func recvKey(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return fn.Pkg().Path() + "." + n.Obj().Name()
	}
	return fn.Pkg().Path() + ".?"
}

// apiWalk collects the named types reachable from an exported API, keyed
// as recvKey names them.
type apiWalk map[string]bool

func (r apiWalk) visit(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		obj := t.Origin().Obj()
		if obj.Pkg() == nil {
			return // error and the other universe types
		}
		key := obj.Pkg().Path() + "." + obj.Name()
		if r[key] {
			return
		}
		r[key] = true
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.visit(t.TypeArgs().At(i))
		}
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				r.visit(m.Type())
			}
		}
		r.visit(t.Underlying())
	case *types.Pointer:
		r.visit(t.Elem())
	case *types.Slice:
		r.visit(t.Elem())
	case *types.Array:
		r.visit(t.Elem())
	case *types.Map:
		r.visit(t.Key())
		r.visit(t.Elem())
	case *types.Chan:
		r.visit(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				r.visit(f.Type())
			}
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				r.visit(tup.At(i).Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			r.visit(t.Method(i).Type())
		}
	}
}
