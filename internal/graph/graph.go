// Package graph provides the LLM task-graph representation of the paper's
// Fig. 1: a typed DAG of kernel, collective and transfer nodes with
// per-node predicted costs, topological scheduling, critical-path
// analysis, and DOT export for visualization. The builders turn a model
// configuration plus an execution context into the per-device graph the
// performance prediction engine walks.
package graph

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"optimus/internal/arch"
	"optimus/internal/comm"
	"optimus/internal/kernels"
	"optimus/internal/model"
	"optimus/internal/roofline"
)

// Kind classifies a node.
type Kind int

const (
	// Kernel is an on-device compute kernel (GEMM or element-wise).
	Kernel Kind = iota
	// Collective is a multi-device communication operation.
	Collective
	// Transfer is a point-to-point move (pipeline stage boundary).
	Transfer
	// Marker is a zero-cost structural node (phase boundaries).
	Marker
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Kernel:
		return "kernel"
	case Collective:
		return "collective"
	case Transfer:
		return "transfer"
	case Marker:
		return "marker"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NodeID identifies a node within its graph.
type NodeID int

// Node is one task.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind
	// Cost is the node's predicted execution time in seconds.
	Cost float64
}

// Graph is a DAG of tasks. The zero value is an empty graph ready to use.
type Graph struct {
	nodes []Node
	succs [][]NodeID
	preds [][]NodeID
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns a node by ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return Node{}, fmt.Errorf("graph: node %d out of range", id)
	}
	return g.nodes[id], nil
}

// Add inserts a node depending on deps and returns its ID.
func (g *Graph) Add(name string, kind Kind, cost float64, deps ...NodeID) (NodeID, error) {
	if cost < 0 || math.IsNaN(cost) {
		return 0, fmt.Errorf("graph: invalid cost %g for %s", cost, name)
	}
	id := NodeID(len(g.nodes))
	for _, d := range deps {
		if int(d) < 0 || int(d) >= len(g.nodes) {
			return 0, fmt.Errorf("graph: dependency %d of %s out of range", d, name)
		}
	}
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind, Cost: cost})
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, append([]NodeID(nil), deps...))
	for _, d := range deps {
		g.succs[d] = append(g.succs[d], id)
	}
	return id, nil
}

// MustAdd is Add for builders with validated inputs.
func (g *Graph) MustAdd(name string, kind Kind, cost float64, deps ...NodeID) NodeID {
	id, err := g.Add(name, kind, cost, deps...)
	if err != nil {
		panic(err)
	}
	return id
}

// TopoOrder returns the nodes in a dependency-respecting order. Since Add
// only accepts existing nodes as dependencies, insertion order is already
// topological; the method exists for symmetry and future mutation support.
func (g *Graph) TopoOrder() []NodeID {
	out := make([]NodeID, len(g.nodes))
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// TotalCost returns the serial execution time: the sum of node costs.
func (g *Graph) TotalCost() float64 {
	var s float64
	for _, n := range g.nodes {
		s += n.Cost
	}
	return s
}

// CriticalPath returns the longest cost-weighted path and its length —
// the graph's minimum makespan under unlimited parallelism.
func (g *Graph) CriticalPath() (float64, []NodeID) {
	if len(g.nodes) == 0 {
		return 0, nil
	}
	finish := make([]float64, len(g.nodes))
	via := make([]NodeID, len(g.nodes))
	for i := range via {
		via[i] = -1
	}
	var best NodeID
	for i, n := range g.nodes {
		start := 0.0
		if preds := g.preds[i]; len(preds) > 0 {
			start = finish[preds[0]]
			via[i] = preds[0]
			for _, p := range preds[1:] {
				if finish[p] > start {
					start = finish[p]
					via[i] = p
				}
			}
		}
		finish[i] = start + n.Cost
		if finish[i] > finish[best] {
			best = NodeID(i)
		}
	}
	var path []NodeID
	for at := best; at != -1; at = via[at] {
		path = append(path, at)
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return finish[best], path
}

// Parallelism returns total cost over critical-path length — the average
// width of the graph.
func (g *Graph) Parallelism() float64 {
	cp, _ := g.CriticalPath()
	if cp == 0 {
		return 0
	}
	return g.TotalCost() / cp
}

// CostByKind aggregates node costs per kind.
func (g *Graph) CostByKind() map[Kind]float64 {
	out := make(map[Kind]float64)
	for _, n := range g.nodes {
		out[n.Kind] += n.Cost
	}
	return out
}

// DOT renders the graph in Graphviz format, with node labels carrying the
// predicted cost.
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n", title)
	shapes := map[Kind]string{Collective: "ellipse", Transfer: "diamond", Marker: "point"}
	for _, n := range g.nodes {
		attr := ""
		if s, ok := shapes[n.Kind]; ok {
			attr = fmt.Sprintf(", shape=%s", s)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n%.1fµs\"%s];\n", n.ID, n.Name, n.Cost*1e6, attr)
	}
	for id, succs := range g.succs {
		sorted := append([]NodeID(nil), succs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, s := range sorted {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", id, s)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Builder options for the transformer-layer graph.
type BuildSpec struct {
	Model model.Config
	Exec  kernels.Exec
	// Layers is how many transformer layers to chain.
	Layers int
	// Engine prices kernels; Link and Algorithm price collectives over the
	// Exec's TP group — together the kernels.Pricer every node goes
	// through.
	Engine    *roofline.Engine
	Link      arch.Link
	Algorithm comm.Algorithm
}

// BuildForward constructs the per-device forward task graph: embedding,
// the chained transformer layers with residual bypass edges, and the
// output head. The residual structure makes the graph a chain of diamonds
// rather than a pure chain, so the critical path is a genuine DAG
// computation.
func BuildForward(s BuildSpec) (*Graph, error) {
	if s.Engine == nil {
		return nil, fmt.Errorf("graph: nil engine")
	}
	if err := s.Model.Validate(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if err := s.Exec.Validate(); err != nil {
		return nil, err
	}
	if s.Layers <= 0 {
		return nil, fmt.Errorf("graph: non-positive layer count %d", s.Layers)
	}
	p := &kernels.Pricer{Engine: s.Engine, Link: s.Link, TP: s.Exec.TP, Algorithm: s.Algorithm}
	g := &Graph{}
	// add prices op and appends it after deps as a kernel or collective node.
	add := func(name string, op *kernels.Op, deps ...NodeID) NodeID {
		pr := p.Price(op)
		kind := Kernel
		if pr.Collective {
			kind = Collective
		}
		return g.MustAdd(name, kind, pr.Time, deps...)
	}
	cursor := g.MustAdd("input", Marker, 0)
	embOps := kernels.EmbeddingForward(s.Model, s.Exec)
	for i := range embOps {
		cursor = add(embOps[i].Name, &embOps[i], cursor)
	}

	layerOps := kernels.LayerForward(s.Model, s.Exec)
	for l := 0; l < s.Layers; l++ {
		layerIn := cursor
		prefix := fmt.Sprintf("L%d/", l)
		for i := range layerOps {
			op := &layerOps[i]
			deps := []NodeID{cursor}
			// Residual joins also consume the block input, forming the
			// diamond: block input feeds both the kernel chain and the
			// skip connection.
			if strings.HasSuffix(op.Name, "-skip") {
				deps = append(deps, layerIn)
			}
			cursor = add(prefix+op.Name, op, deps...)
			if strings.HasSuffix(op.Name, "-skip") {
				layerIn = cursor // next block's residual input
			}
		}
	}

	logitOps := kernels.LogitsForward(s.Model, s.Exec)
	for i := range logitOps {
		cursor = add(logitOps[i].Name, &logitOps[i], cursor)
	}
	g.MustAdd("output", Marker, 0, cursor)
	return g, nil
}
