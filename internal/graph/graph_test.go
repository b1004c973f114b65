package graph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"optimus/internal/arch"
	"optimus/internal/kernels"
	"optimus/internal/model"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

func TestAddAndQuery(t *testing.T) {
	g := &Graph{}
	a, err := g.Add("a", Kernel, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := g.Add("b", Kernel, 2, a)
	if g.Len() != 2 {
		t.Errorf("len = %d", g.Len())
	}
	n, err := g.Node(b)
	if err != nil || n.Name != "b" || n.Cost != 2 {
		t.Errorf("Node(b) = %+v, %v", n, err)
	}
	if _, err := g.Node(99); err == nil {
		t.Error("out-of-range node should error")
	}
}

func TestAddRejectsBadInputs(t *testing.T) {
	g := &Graph{}
	if _, err := g.Add("neg", Kernel, -1); err == nil {
		t.Error("negative cost should error")
	}
	if _, err := g.Add("nan", Kernel, math.NaN()); err == nil {
		t.Error("NaN cost should error")
	}
	if _, err := g.Add("dangling", Kernel, 1, 42); err == nil {
		t.Error("unknown dependency should error")
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	// a → {b(3), c(1)} → d: critical path a-b-d with length 3+costs.
	g := &Graph{}
	a := g.MustAdd("a", Marker, 0)
	b := g.MustAdd("b", Kernel, 3, a)
	c := g.MustAdd("c", Kernel, 1, a)
	d := g.MustAdd("d", Kernel, 2, b, c)
	length, path := g.CriticalPath()
	if length != 5 {
		t.Errorf("critical path length = %g, want 5", length)
	}
	want := []NodeID{a, b, d}
	if len(path) != 3 || path[0] != want[0] || path[1] != want[1] || path[2] != want[2] {
		t.Errorf("critical path = %v, want %v", path, want)
	}
	if g.TotalCost() != 6 {
		t.Errorf("total = %g, want 6", g.TotalCost())
	}
	if p := g.Parallelism(); math.Abs(p-6.0/5) > 1e-12 {
		t.Errorf("parallelism = %g, want 1.2", p)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := &Graph{}
	if l, p := g.CriticalPath(); l != 0 || p != nil {
		t.Error("empty graph should have zero critical path")
	}
	if g.Parallelism() != 0 {
		t.Error("empty graph parallelism should be 0")
	}
}

func buildSpec(t *testing.T, layers int) BuildSpec {
	t.Helper()
	dev := arch.A100()
	return BuildSpec{
		Model: model.Llama2_13B(),
		Exec: kernels.Exec{
			Batch: 1, Seq: 200, Context: 200, TP: 1,
			Precision: tech.FP16, Phase: kernels.Prefill,
		},
		Layers: layers,
		Engine: roofline.New(dev),
		Link:   arch.IntraLink(tech.NVLink3),
	}
}

func TestBuildForwardStructure(t *testing.T) {
	g, err := BuildForward(buildSpec(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	// input + embedding(1 for llama) + 2 layers × ops + head(2) + output.
	perLayer := len(kernels.LayerForward(model.Llama2_13B(), buildSpec(t, 1).Exec))
	want := 1 + 1 + 2*perLayer + 2 + 1
	if g.Len() != want {
		t.Errorf("graph size = %d, want %d", g.Len(), want)
	}
	cp, path := g.CriticalPath()
	if cp <= 0 || len(path) == 0 {
		t.Fatal("no critical path")
	}
	// The graph is a chain of diamonds: the critical path must be shorter
	// than the serial total (the skip edges are bypasses) or equal when
	// the chain dominates, and never longer.
	if cp > g.TotalCost()+1e-12 {
		t.Error("critical path exceeds serial cost")
	}
	// First and last nodes are the markers.
	first, _ := g.Node(path[0])
	if first.Name != "input" {
		t.Errorf("path starts at %s, want input", first.Name)
	}
}

func TestBuildForwardCostMatchesKernelSum(t *testing.T) {
	// The graph's kernel cost must equal pricing the op stream directly.
	s := buildSpec(t, 3)
	g, err := BuildForward(s)
	if err != nil {
		t.Fatal(err)
	}
	p := &kernels.Pricer{Engine: s.Engine, Link: s.Link, TP: s.Exec.TP, Algorithm: s.Algorithm}
	var want float64
	sum := func(ops []kernels.Op) {
		for i := range ops {
			want += p.Price(&ops[i]).Time
		}
	}
	sum(kernels.EmbeddingForward(s.Model, s.Exec))
	for i := 0; i < 3; i++ {
		sum(kernels.LayerForward(s.Model, s.Exec))
	}
	sum(kernels.LogitsForward(s.Model, s.Exec))
	if got := g.TotalCost(); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("graph total %g != op-stream total %g", got, want)
	}
}

func TestBuildForwardCollectives(t *testing.T) {
	s := buildSpec(t, 2)
	s.Exec.TP = 8
	s.Model = model.Llama2_70B() // heads divisible by 8
	g, err := BuildForward(s)
	if err != nil {
		t.Fatal(err)
	}
	costs := g.CostByKind()
	if costs[Collective] <= 0 {
		t.Error("TP graph must contain collective cost")
	}
	if costs[Kernel] <= 0 {
		t.Error("graph must contain kernel cost")
	}
}

func TestBuildForwardRejectsBadSpecs(t *testing.T) {
	s := buildSpec(t, 0)
	if _, err := BuildForward(s); err == nil {
		t.Error("zero layers should error")
	}
	s = buildSpec(t, 1)
	s.Engine = nil
	if _, err := BuildForward(s); err == nil {
		t.Error("nil engine should error")
	}
	s = buildSpec(t, 1)
	s.Exec.Batch = 0
	if _, err := BuildForward(s); err == nil {
		t.Error("invalid exec should error")
	}
	// A zero model used to divide by zero while enumerating the layer.
	s = buildSpec(t, 1)
	s.Model = model.Config{}
	if _, err := BuildForward(s); err == nil || !strings.Contains(err.Error(), "graph:") {
		t.Errorf("zero model: err = %v, want a graph: error", err)
	}
	s = buildSpec(t, 1)
	s.Model.Heads = 0
	if _, err := BuildForward(s); err == nil {
		t.Error("model without heads should error")
	}
}

func TestDOTExport(t *testing.T) {
	g, err := BuildForward(buildSpec(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT("llama-layer")
	if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Error("DOT output malformed")
	}
	if !strings.Contains(dot, "qkv") {
		t.Error("DOT output should carry op names")
	}
}

func TestKindString(t *testing.T) {
	if Kernel.String() != "kernel" || Collective.String() != "collective" ||
		Transfer.String() != "transfer" || Marker.String() != "marker" {
		t.Error("kind names wrong")
	}
}

// Property: critical path is monotone under node addition — appending a
// dependent node never shortens it.
func TestCriticalPathMonotoneProperty(t *testing.T) {
	f := func(costs []uint8) bool {
		g := &Graph{}
		prev := g.MustAdd("root", Marker, 0)
		before, _ := g.CriticalPath()
		for i, c := range costs {
			if i > 8 {
				break
			}
			prev = g.MustAdd("n", Kernel, float64(c), prev)
			now, _ := g.CriticalPath()
			if now < before-1e-12 {
				return false
			}
			before = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TotalCost ≥ CriticalPath ≥ max single node cost.
func TestCostBoundsProperty(t *testing.T) {
	f := func(costs []uint8) bool {
		g := &Graph{}
		root := g.MustAdd("root", Marker, 0)
		maxCost := 0.0
		for i, c := range costs {
			if i > 12 {
				break
			}
			// Fan out from the root: a wide graph.
			g.MustAdd("n", Kernel, float64(c), root)
			if float64(c) > maxCost {
				maxCost = float64(c)
			}
		}
		cp, _ := g.CriticalPath()
		return g.TotalCost() >= cp-1e-12 && cp >= maxCost-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
