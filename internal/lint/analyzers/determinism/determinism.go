// Package determinism enforces the simulator's byte-identical
// reproducibility invariant at analysis time.
//
// Everything under internal/serve, internal/cluster and internal/sweep
// must produce byte-identical results at any GOMAXPROCS and across
// processes — the paper's methodology (and the memo cache's correctness)
// rests on it. The runtime tests pin this for the paths they cover; this
// analyzer rejects the constructs that break it anywhere in those
// packages:
//
//   - wall-clock reads (time.Now / time.Since / time.Until)
//   - the global math/rand source (top-level rand.* functions)
//   - rand.New over anything but an inline seeded rand.NewSource
//   - range over a map, whose iteration order is randomized per run
//   - go statements, whose scheduling varies from run to run
//
// Deliberate sites — wall-clock instrumentation that never reaches
// results, order-insensitive map folds, a worker pool whose results do
// not depend on which worker ran what — carry //lint:deterministic with
// a justification.
package determinism

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"optimus/internal/lint/analysis"
	"optimus/internal/lint/directive"
)

// Packages scopes the analyzer: full import paths whose packages carry
// the determinism invariant. A package also matches by bare base name so
// analysistest fixtures (import path "serve") exercise the same code
// path as the real tree.
var Packages = []string{
	"optimus/internal/workload",
	"optimus/internal/serve",
	"optimus/internal/cluster",
	"optimus/internal/sweep",
}

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "reject wall-clock, global/unseeded rand, map-iteration order and unexplained goroutines in the simulator packages",
	Run:  run,
}

func inScope(pkgPath string) bool {
	for _, p := range Packages {
		if pkgPath == p || pkgPath == path.Base(p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.GoStmt:
				if !directive.Suppressed(pass, n.Pos(), "deterministic") {
					pass.Reportf(n.Pos(), "go statement: goroutine scheduling varies per run; annotate //lint:deterministic with why results cannot depend on it")
				}
			}
			return true
		})
	}
	return nil, nil
}

// pkgFunc resolves call to (package path, function name) when the callee
// is a selector on an imported package, e.g. time.Now.
func pkgFunc(pass *analysis.Pass, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// seededSource reports whether the rand.New argument is an inline call to
// a seeded source constructor — the one shape whose seed is visibly
// pinned at the call site.
func seededSource(pass *analysis.Pass, arg ast.Expr) bool {
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return false
	}
	pkg, name := pkgFunc(pass, call)
	if !strings.HasPrefix(pkg, "math/rand") {
		return false
	}
	switch name {
	case "NewSource", "NewPCG", "NewChaCha8":
		return true
	}
	return false
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg, name := pkgFunc(pass, call)
	switch pkg {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			if !directive.Suppressed(pass, call.Pos(), "deterministic") {
				pass.Reportf(call.Pos(), "time.%s reads the wall clock; simulator results must be deterministic (annotate //lint:deterministic if instrumentation-only)", name)
			}
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New":
			if len(call.Args) == 1 && seededSource(pass, call.Args[0]) {
				return
			}
			if !directive.Suppressed(pass, call.Pos(), "deterministic") {
				pass.Reportf(call.Pos(), "rand.New without an inline seeded rand.NewSource: the seed must be pinned at the construction site")
			}
		case "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
			// Constructors: deterministic given their arguments.
		default:
			if !directive.Suppressed(pass, call.Pos(), "deterministic") {
				pass.Reportf(call.Pos(), "rand.%s uses the process-global rand source; draw from a seeded *rand.Rand instead", name)
			}
		}
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if directive.Suppressed(pass, rng.Pos(), "deterministic") {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order is randomized per run; collect and sort keys, or annotate //lint:deterministic if the fold is order-insensitive")
}
