package repro

import (
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

// fig8Split computes the Fig. 8 bound-type decomposition with the paper's
// per-head attention-kernel accounting (Table 4's "single head" framing):
// one score and one context kernel per attention head, launch-dominated
// kernels filed under memory-bound.
func fig8Split(dev arch.Device, batch int) (computeBound, memoryBound float64) {
	cfg := model.Llama2_13B()
	eng := roofline.New(dev)
	prompt := 200
	rows := batch * prompt
	hd := cfg.HeadDim()

	classify := func(g roofline.GEMM, copies int) {
		est := eng.EstimateGEMM(g)
		time := est.Time * float64(copies)
		if est.Bound == roofline.BoundCompute {
			computeBound += time
		} else {
			memoryBound += time
		}
	}
	classify(roofline.GEMM{M: rows, N: 3 * cfg.Hidden, K: cfg.Hidden, Precision: tech.FP16}, 1)
	classify(roofline.GEMM{M: prompt, N: prompt, K: hd, Batch: batch, Precision: tech.FP16}, cfg.Heads)
	classify(roofline.GEMM{M: prompt, N: hd, K: prompt, Batch: batch, Precision: tech.FP16}, cfg.Heads)
	classify(roofline.GEMM{M: rows, N: cfg.Hidden, K: cfg.Hidden, Precision: tech.FP16}, 1)
	classify(roofline.GEMM{M: rows, N: 2 * cfg.FFN, K: cfg.Hidden, Precision: tech.FP16}, 1)
	classify(roofline.GEMM{M: rows, N: cfg.Hidden, K: cfg.FFN, Precision: tech.FP16}, 1)
	return computeBound, memoryBound
}

// fig8 regenerates the prefill GEMM bound-type fractions for A100/H100 at
// B=1 and B=16, with the KV-cache/weights memory inset.
func fig8() (Table, error) {
	t := Table{
		ID:    "fig8",
		Title: "Prefill GEMM time per layer by bound type, Llama2-13B (200-token prompt) + memory inset",
		Header: []string{"Device", "Batch", "compute-bound (ms)", "memory-bound (ms)",
			"compute share", "weights (GB)", "KV cache (GB)", "HBM (GB)"},
	}
	cfg := model.Llama2_13B()
	for _, d := range []arch.Device{arch.A100(), arch.H100()} {
		for _, b := range []int{1, 16} {
			cb, mb := fig8Split(d, b)
			fp := memfoot.Inference(cfg, 1, b, 400, 2)
			t.Rows = append(t.Rows, []string{
				d.Name, fmt.Sprint(b),
				f2(cb * 1e3), f2(mb * 1e3), pct(cb / (cb + mb)),
				gb(fp.Weights), f2(fp.KVCache / 1e9), gb(d.DRAMCapacity()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: A100 B=1 ≈ 67% compute-bound growing to 96% at B=16; H100 B=1 fully memory-bound, 85% compute at B=16",
		"the generation phase is entirely memory-bound on both devices (§6.1)")
	return t, nil
}

// fig9Point is one point of the §6.2 sweep: A100-class compute with the
// DRAM generation swapped, NVLink-Gen3 fabric (plus the HBMX-NV4 point).
type fig9Point struct {
	Label string
	DRAM  tech.DRAMTech
	NV    tech.NetworkTech
}

// fig9Points returns the sweep in paper order.
func fig9Points() []fig9Point {
	return []fig9Point{
		{"GDR6-NV3", tech.GDDR6, tech.NVLink3},
		{"HBM2-NV3", tech.HBM2, tech.NVLink3},
		{"HBM2e-NV3", tech.HBM2E, tech.NVLink3},
		{"HBM3-NV3", tech.HBM3, tech.NVLink3},
		{"HBM3e-NV3", tech.HBM3E, tech.NVLink3},
		{"HBMX-NV3", tech.HBMX, tech.NVLink3},
		{"HBMX-NV4", tech.HBMX, tech.NVLink4},
	}
}

// a100WithDRAM returns an A100-class device with the off-chip memory
// generation replaced — "the on-chip specifications are same as A100".
func a100WithDRAM(d tech.DRAMTech) arch.Device {
	dev := arch.A100()
	spec := d.Spec()
	capacity := dev.DRAMCapacity()
	if spec.StackCapacity*5 > capacity {
		capacity = spec.StackCapacity * 5
	}
	dev.Name = "A100-" + spec.Name
	dev.Mem[len(dev.Mem)-1] = arch.MemLevel{
		Name: "HBM", Capacity: capacity, BW: spec.PeakBW, Util: 0.80,
	}
	dev.DRAM = d
	return dev
}

// fig9Predict evaluates one sweep point at the given GPU count.
func fig9Predict(p fig9Point, gpus int) (infer.Result, error) {
	sys, err := arch.SystemOf(a100WithDRAM(p.DRAM), gpus, 8, p.NV, tech.IBNDR)
	if err != nil {
		return infer.Result{}, err
	}
	return infer.Predict(infer.Spec{
		Model: model.Llama2_13B(), System: sys, TP: gpus, Batch: 1,
		PromptTokens: 200, GenTokens: 200, Precision: tech.FP16,
	})
}

// fig9 regenerates the DRAM-technology scaling of inference latency for 2-
// and 8-GPU systems, with the H100-HBM3e reference lines.
func fig9() (Table, error) {
	t := Table{
		ID:    "fig9",
		Title: "Inference latency vs DRAM technology, Llama2-13B (B=1, 200+200 tokens), A100-class compute",
		Header: []string{"Memory-Fabric", "#GPUs", "total (ms)", "memory (ms)",
			"comm (ms)", "comm/memory"},
	}
	for _, p := range fig9Points() {
		for _, gpus := range []int{2, 8} {
			res, err := fig9Predict(p, gpus)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				p.Label, fmt.Sprint(gpus), ms(res.Total), ms(res.MemoryTime),
				ms(res.CommTime), f2(res.CommTime / res.MemoryTime),
			})
		}
	}
	// Reference lines: H100 systems with their native HBM3 stacks.
	for _, gpus := range []int{2, 8} {
		sys, err := arch.SystemOf(arch.H100(), gpus, 8, tech.NVLink4, tech.IBNDR)
		if err != nil {
			return Table{}, err
		}
		res, err := infer.Predict(infer.Spec{
			Model: model.Llama2_13B(), System: sys, TP: gpus, Batch: 1,
			PromptTokens: 200, GenTokens: 200, Precision: tech.FP16,
		})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			"H100-ref", fmt.Sprint(gpus), ms(res.Total), ms(res.MemoryTime),
			ms(res.CommTime), f2(res.CommTime / res.MemoryTime),
		})
	}
	t.Notes = append(t.Notes,
		"latency scales with DRAM bandwidth up to HBM3/HBM3e, then the L2 cache becomes the bound (§6.2)",
		"NV3→NV4 buys a modest communication gain (~12%); at 8 GPUs communication is ≈1.6x memory time")
	return t, nil
}
