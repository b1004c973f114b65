// Package loader turns package directories into type-checked
// analysis.Pass inputs using only the standard library.
//
// Everything is type-checked from source, so no pre-built export data
// (and no network) is required: the standard library through
// go/importer's source importer, every other import by the Loader itself.
// Test files are not loaded; the lint invariants are about shipped
// simulator code, and the _test.go suffix is already every analyzer's
// test-file boundary.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: exactly the inputs an
// analysis.Pass carries.
type Package struct {
	Path      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks package directories. It is the importer
// of the packages it checks, so a module package is checked once per
// Loader, whether it is loaded or imported first, and every package sees
// the same copy of it. The standard library goes through one shared
// source importer.
type Loader struct {
	Fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package // by directory; nil while being checked
}

// New returns a Loader with a fresh file set and source importer.
func New() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*Package),
	}
}

// Sizes is the std gc size model for the host platform — what the gc
// compiler itself would lay structs out as.
func Sizes() types.Sizes {
	return types.SizesFor(build.Default.Compiler, build.Default.GOARCH)
}

// LoadDir loads the single package in dir under the import path pkgPath,
// honoring build constraints and skipping test files.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[dir]; ok {
		if p == nil {
			return nil, fmt.Errorf("loader: import cycle through %s", pkgPath)
		}
		return p, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, perr := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			return nil, fmt.Errorf("loader: %w", perr)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	l.pkgs[dir] = nil
	cfg := types.Config{Importer: l, Sizes: Sizes()}
	pkg, err := cfg.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		delete(l.pkgs, dir)
		return nil, fmt.Errorf("loader: typecheck %s: %w", pkgPath, err)
	}
	l.pkgs[dir] = &Package{Path: pkgPath, Dir: dir, Fset: l.Fset, Files: files, Pkg: pkg, TypesInfo: info}
	return l.pkgs[dir], nil
}

// ImportFrom implements types.ImporterFrom. A path outside the standard
// library is located by the go command run in srcDir, so it resolves in
// the importing package's own module, whatever the process's working
// directory.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	ctxt := build.Default
	ctxt.Dir = srcDir
	bp, err := ctxt.Import(path, srcDir, build.FindOnly)
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	if bp.Goroot {
		return l.std.ImportFrom(path, srcDir, 0)
	}
	p, err := l.LoadDir(bp.Dir, bp.ImportPath)
	if err != nil {
		return nil, err
	}
	return p.Pkg, nil
}

// Import implements types.Importer, resolving path in the working
// directory's module.
func (l *Loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

// ModuleRoot walks upward from dir to the enclosing go.mod and returns
// the module root directory and module path.
//
//lint:export cmd/optimuslint's whole-module tests find the tree to load through it
func ModuleRoot(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("loader: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("loader: no go.mod above %s", abs)
		}
		d = parent
	}
}

// Expand resolves package patterns relative to dir into (dir, importPath)
// pairs, in sorted import-path order. Supported forms are "./..."
// (every package under the module), "./x" and "./x/..." (a directory and
// its subtree). testdata, vendor and dot-directories are never matched —
// the same dirs the go tool itself skips.
func Expand(dir string, patterns []string) ([]Package, error) {
	root, modPath, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []Package
	add := func(d string) {
		if seen[d] {
			return
		}
		seen[d] = true
		bp, err := build.Default.ImportDir(d, 0)
		if err != nil || len(bp.GoFiles) == 0 {
			return // not a package (only tests, or no Go files): skip silently, like go vet
		}
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		out = append(out, Package{Path: ip, Dir: d})
	}
	walk := func(base string) error {
		return filepath.WalkDir(base, func(p string, de os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !de.IsDir() {
				return nil
			}
			name := de.Name()
			if p != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := walk(root); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(dir, strings.TrimSuffix(pat, "/..."))
			if err := walk(base); err != nil {
				return nil, err
			}
		default:
			add(filepath.Join(dir, pat))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}
