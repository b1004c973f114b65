package infer

import (
	"math"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/graph"
	"optimus/internal/kernels"
	"optimus/internal/model"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

// TestTaskGraphMatchesPrefillLayer pins the task graph and the inference
// pass to one op pricer: for a prefill Exec the kernel nodes of a
// one-layer graph sum to the pass's per-layer device time, and its
// collective nodes to the per-layer collective time under Spec.Algorithm.
func TestTaskGraphMatchesPrefillLayer(t *testing.T) {
	sys, err := arch.SystemOf(arch.H100(), 8, 8, tech.NVLink4, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	s := Spec{
		Model: model.Llama2_70B(), System: sys, TP: 8, Batch: 4,
		PromptTokens: 512, GenTokens: 1, Precision: tech.FP16,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	exec := kernels.Exec{
		Batch: s.Batch, Seq: s.PromptTokens, Context: s.PromptTokens, TP: s.TP,
		Precision: s.Precision, Phase: kernels.Prefill,
	}
	p := &kernels.Pricer{
		Engine: roofline.New(sys.Device), Link: sys.LinkBetween(s.TP), TP: s.TP, Algorithm: s.Algorithm,
	}
	var layer phaseCost
	layer.add(p, kernels.LayerForward(s.Model, exec))

	g, err := graph.BuildForward(graph.BuildSpec{
		Model: s.Model, Exec: exec, Layers: 1,
		Engine: roofline.New(sys.Device), Link: sys.LinkBetween(s.TP), Algorithm: s.Algorithm,
	})
	if err != nil {
		t.Fatal(err)
	}
	var kernel, collective float64
	for id := 0; id < g.Len(); id++ {
		n, _ := g.Node(graph.NodeID(id))
		switch {
		case !strings.HasPrefix(n.Name, "L0/"):
		case n.Kind == graph.Kernel:
			kernel += n.Cost
		case n.Kind == graph.Collective:
			collective += n.Cost
		}
	}
	if math.Abs(kernel-layer.device) > 1e-12*layer.device {
		t.Errorf("graph kernel nodes sum to %g, prefill per-layer device time %g", kernel, layer.device)
	}
	if math.Abs(collective-layer.comm) > 1e-12*layer.comm || layer.comm <= 0 {
		t.Errorf("graph collective nodes sum to %g, prefill per-layer comm %g", collective, layer.comm)
	}
}
