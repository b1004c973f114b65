package train

import (
	"math"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/comm"
	"optimus/internal/graph"
	"optimus/internal/kernels"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

// TestTaskGraphMatchesForwardLayer pins the task graph and the training
// predictor to one op pricer: the kernel nodes of a one-layer forward
// graph sum to the layer's forward device time, and its collective nodes
// to the layer's TP communication, with and without sequence parallelism.
func TestTaskGraphMatchesForwardLayer(t *testing.T) {
	sys, err := arch.DGXA100(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []bool{false, true} {
		s := Spec{
			Model:  model.GPT22B(),
			System: sys,
			Map: parallel.Mapping{
				DP: 1, TP: 8, PP: 1, SP: sp, Microbatch: 1, Schedule: parallel.OneFOneB,
			},
			GlobalBatch: 8,
			Seq:         2048,
			Precision:   tech.BF16,
		}
		fwd := costOps(s.pricer(), kernels.LayerForward(s.Model, s.exec()))
		g, err := graph.BuildForward(graph.BuildSpec{
			Model: s.Model, Exec: s.exec(), Layers: 1,
			Engine: roofline.New(sys.Device), Link: sys.LinkBetween(8), Algorithm: comm.Ring,
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
		if want := fwd.gemm + fwd.ew; math.Abs(kernel-want) > 1e-12*want {
			t.Errorf("SP=%v: graph kernel nodes sum to %g, train forward layer device time %g", sp, kernel, want)
		}
		if math.Abs(collective-fwd.comm) > 1e-12*fwd.comm || fwd.comm <= 0 {
			t.Errorf("SP=%v: graph collective nodes sum to %g, train forward layer comm %g", sp, collective, fwd.comm)
		}
	}
}
