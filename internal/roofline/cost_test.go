package roofline_test

import (
	"testing"

	"optimus/internal/arch"
	"optimus/internal/kernels"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

// TestCostPathsAllocFree pins that every pricing entry point — the three
// Estimate* evaluations (and the BestCompute preference resolution under
// them) and the op pricer over them — stays off the heap. The serving
// simulator prices every step and a plan sweep every candidate through
// them.
func TestCostPathsAllocFree(t *testing.T) {
	e := roofline.New(arch.H100())
	g := roofline.GEMM{M: 4, N: 640, K: 5120, Batch: 1, Precision: tech.FP16}
	w := roofline.Elementwise{Name: "softmax", Elements: 1 << 16, BytesPerElem: 6, FLOPsPerElem: 5}
	f := roofline.Fused{Name: "flash", FLOPs: 1e10, DRAMBytes: 1e8, Precision: tech.FP16}
	p := kernels.Pricer{Engine: e, Link: arch.IntraLink(tech.NVLink4), TP: 8}
	ops := []kernels.Op{
		{Kind: kernels.KindGEMM, GEMM: g},
		{Kind: kernels.KindElementwise, EW: w},
		{Kind: kernels.KindFused, Fused: f},
		{Kind: kernels.KindAllReduce, CommBytes: 1 << 20},
		{Kind: kernels.KindAllGather, CommBytes: 1 << 20},
		{Kind: kernels.KindReduceScatter, CommBytes: 1 << 20},
	}
	var sink float64
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"EstimateGEMM", func() { sink += e.EstimateGEMM(g).Time }},
		{"EstimateElementwise", func() { sink += e.EstimateElementwise(w).Time }},
		{"EstimateFused", func() { sink += e.EstimateFused(f).Time }},
		{"Pricer.Price", func() {
			for i := range ops {
				sink += p.Price(&ops[i]).Time
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %g objects per call, want 0", c.name, allocs)
		}
	}
	if sink <= 0 {
		t.Fatal("pricing returned no time")
	}
}
