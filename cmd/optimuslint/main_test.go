package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"optimus/internal/lint/loader"
)

// TestSuiteCleanOnTree pins the standing gate: the full analyzer suite
// over the repository reports zero findings. Any new violation either
// gets fixed or gets an annotated justification — this test is what makes
// that a build break instead of a review comment.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	var buf bytes.Buffer
	n, err := analyze(&buf, loadTree(t).pkgs, suite)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("optimuslint reported %d findings on a tree expected clean:\n%s", n, buf.String())
	}
}

// moduleTree is the whole module, loaded once for the tests that need
// all of it.
type moduleTree struct {
	once    sync.Once
	modPath string
	loader  *loader.Loader
	pkgs    []*loader.Package
	err     error
}

var tree moduleTree

func loadTree(t *testing.T) *moduleTree {
	t.Helper()
	tree.once.Do(func() {
		var root string
		if root, tree.modPath, tree.err = loader.ModuleRoot("."); tree.err == nil {
			tree.loader = loader.New()
			tree.pkgs, tree.err = load(tree.loader, root, []string{"./..."})
		}
	})
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return &tree
}

func TestFilterSuite(t *testing.T) {
	all, err := filterSuite("")
	if err != nil || len(all) != len(suite) {
		t.Fatalf("empty filter: got %d analyzers, err %v; want the full suite", len(all), err)
	}
	two, err := filterSuite("floateq, determinism")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "floateq" || two[1].Name != "determinism" {
		got := make([]string, len(two))
		for i, a := range two {
			got[i] = a.Name
		}
		t.Fatalf("filter order not preserved: %v", got)
	}
	if _, err := filterSuite("nosuch"); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown analyzer: got err %v, want it named", err)
	}
}
