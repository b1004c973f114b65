package repro

import (
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/dse"
	"optimus/internal/gemv"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/uarch"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

// fig3 regenerates the GEMV validation: predicted vs (synthetically)
// measured kernel times under the clustered and constant DRAM-utilization
// calibrations.
func fig3() (Table, error) {
	o := gemv.NewOracle(42)
	samples := gemv.Profile(o, gemv.LLMKernels())
	cal, err := gemv.Calibrate(samples, 6)
	if err != nil {
		return Table{}, err
	}
	preds := gemv.Evaluate(o, cal, samples)
	st := gemv.Summarize(preds)

	t := Table{
		ID:    "fig3",
		Title: "GEMV correlation on A100: measured vs predicted (clustered / constant DRAM utilization)",
		Header: []string{"Kernel (M=1)", "bytes (MB)", "measured (µs)",
			"clustered (µs)", "err", "constant (µs)", "err"},
	}
	for _, p := range preds {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("N=%d K=%d", p.Kernel.N, p.Kernel.K),
			f1(p.Kernel.CompulsoryBytes() / 1e6),
			us(p.Measured),
			us(p.Clustered), pct(units.RelErr(p.Clustered, p.Measured)),
			us(p.Constant), pct(units.RelErr(p.Constant, p.Measured)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("clustered MAPE %s (paper: 5.4%%), constant MAPE %s, log-log correlation %.4f",
			pct(st.MAPEClustered), pct(st.MAPEConstant), st.Corr),
		"measurements come from the synthetic A100 oracle documented in DESIGN.md (no physical GPU available)")
	return t, nil
}

// fig4Case is one Fig. 4 model configuration (from Table 1).
type fig4Case struct {
	model string
	pp    int
	batch int
}

// fig4 regenerates the training memory dissection for the three GPT models
// under the three recomputation regimes.
func fig4() (Table, error) {
	cases := []fig4Case{
		{"GPT-175B", 8, 64},
		{"GPT-530B", 35, 280},
		{"GPT-1008B", 64, 512},
	}
	regimes := []memfoot.Recompute{memfoot.NoRecompute, memfoot.Selective, memfoot.Full}

	t := Table{
		ID:    "fig4",
		Title: "Memory breakdown per GPU (mixed precision, Table 1 configs) vs the A100 80 GB line",
		Header: []string{"Model", "Recompute", "Optimizer+grad (GB)", "Parameter (GB)",
			"Activation (GB)", "Total (GB)", "fits 80 GB"},
	}
	for _, c := range cases {
		cfg, err := model.ByName(c.model)
		if err != nil {
			return Table{}, err
		}
		for _, r := range regimes {
			spec := memfoot.TrainSpec{
				Model: cfg,
				Map: parallel.Mapping{
					DP: 1, TP: 8, PP: c.pp, Microbatch: 1,
					Schedule: parallel.OneFOneB,
				},
				Seq:         2048,
				GlobalBatch: c.batch,
				Recompute:   r,
			}
			bd, err := memfoot.Train(spec)
			if err != nil {
				return Table{}, err
			}
			fits := "no"
			if memfoot.FitsDevice(bd, 80e9) {
				fits = "yes"
			}
			t.Rows = append(t.Rows, []string{
				c.model, r.String(),
				gb(bd.Gradients + bd.Optimizer), gb(bd.Parameters),
				gb(bd.Activations), gb(bd.Total()), fits,
			})
		}
	}
	t.Notes = append(t.Notes,
		"optimizer state bucket = fp16 gradients (2 B/param) + fp32 master/momentum/variance (12 B/param)",
		"no-recompute configurations generally exceed the 80 GB device, as in §5.1")
	return t, nil
}

// fig5Platform is one bar of the GPU-generation scaling study.
type fig5Platform struct {
	name  string
	dev   arch.Device
	intra tech.NetworkTech
	inter tech.NetworkTech
	prec  tech.Precision
	batch int
}

// fig5Platforms returns the seven configurations of §5.2 in paper order.
func fig5Platforms() []fig5Platform {
	return []fig5Platform{
		{"A100-HDR", arch.A100(), tech.NVLink3, tech.IBHDR, tech.BF16, 1024},
		{"H100-NDR", arch.H100(), tech.NVLink4, tech.IBNDR, tech.FP8, 1024},
		{"H100-NVS", arch.H100(), tech.NVLink4, tech.NVSwitchH, tech.FP8, 1024},
		{"H200-NVS-L", arch.H200(), tech.NVLink4, tech.NVSwitchH, tech.FP8, 4096},
		{"B200-NDR", arch.B200(), tech.NVLink5, tech.IBNDR, tech.FP4, 1024},
		{"B200-NVS", arch.B200(), tech.NVLink5, tech.NVSwitchB, tech.FP4, 1024},
		{"B200-NVS-L", arch.B200(), tech.NVLink5, tech.NVSwitchB, tech.FP4, 4096},
	}
}

// fig5Predict runs the GPT-175B projection for one platform.
func fig5Predict(p fig5Platform) (train.Result, error) {
	sys, err := arch.SystemOf(p.dev, 8192, 8, p.intra, p.inter)
	if err != nil {
		return train.Result{}, err
	}
	return train.Predict(train.Spec{
		Model:  model.GPT175B(),
		System: sys,
		Map: parallel.Mapping{
			DP: 128, TP: 8, PP: 8, SP: true,
			Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		GlobalBatch: p.batch,
		Seq:         2048,
		Precision:   p.prec,
		Recompute:   memfoot.Selective,
	})
}

// fig5 regenerates the GPU-generation training scaling (GPT-175B, 8192
// GPUs, 128-8-8-8) with the compute/communication/other decomposition,
// normalized per sample against B200-NVS-L.
func fig5() (Table, error) {
	plats := fig5Platforms()
	type row struct {
		p       fig5Platform
		res     train.Result
		perSamp float64
	}
	rows := make([]row, len(plats))
	for i, p := range plats {
		res, err := fig5Predict(p)
		if err != nil {
			return Table{}, err
		}
		rows[i] = row{p: p, res: res, perSamp: res.Total / float64(p.batch)}
	}
	ref := rows[len(rows)-1].perSamp // B200-NVS-L

	t := Table{
		ID:    "fig5",
		Title: "Training scaling across GPU generations, GPT-175B on 8192 GPUs (normalized vs B200-NVS-L)",
		Header: []string{"Platform", "Precision", "Batch", "t/batch (s)",
			"normalized", "compute", "comm", "other"},
	}
	for _, r := range rows {
		norm := r.perSamp / ref
		t.Rows = append(t.Rows, []string{
			r.p.name, r.p.prec.String(), fmt.Sprint(r.p.batch),
			f1(r.res.Total), f1(norm),
			f1(norm * r.res.Compute / r.res.Total),
			f1(norm * r.res.Communication / r.res.Total),
			f1(norm * r.res.Other / r.res.Total),
		})
	}
	speedup := rows[0].perSamp / ref
	t.Notes = append(t.Notes,
		fmt.Sprintf("A100-HDR to B200-NVS-L speedup: %.1fx (paper: ~%gx following NVIDIA's trend)", speedup, valdata.Fig5Speedup),
		"precision column is the tensor-engine format: FP8 transformer engine on Hopper, FP4 on Blackwell (§5.2)")
	return t, nil
}

// fig6Series is one curve of the technology-node scaling study.
type fig6Series struct {
	dram tech.DRAMTech
	net  tech.NetworkTech
}

// fig6Curves returns the six curves of §5.3 in legend order.
func fig6Curves() []fig6Series {
	return []fig6Series{
		{tech.HBM2, tech.IBNDRx8},
		{tech.HBM2E, tech.IBNDRx8},
		{tech.HBM3, tech.IBNDRx8},
		{tech.HBM4, tech.IBNDRx8},
		{tech.HBM4, tech.IBXDRx8},
		{tech.HBM4, tech.IBGDRx8},
	}
}

// fig6Objective predicts GPT-7B iteration time (Table 3: 1024 GPUs,
// 64-4-4-4, batch 512) on a system derived from the design.
func fig6Objective(d uarch.Design) (float64, error) {
	sys, err := uarch.SystemFrom(d, 1024, 4)
	if err != nil {
		return 0, err
	}
	res, err := train.Predict(train.Spec{
		Model:  model.GPT7B(),
		System: sys,
		Map: parallel.Mapping{
			DP: 64, TP: 4, PP: 4, SP: true,
			Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		GlobalBatch: 512,
		Seq:         2048,
		Precision:   tech.BF16,
	})
	if err != nil {
		return 0, err
	}
	return res.Total, nil
}

// dseOptions are reduced search settings for the sweep (42 DSE runs).
var dseOptions = dse.Options{MaxIters: 12, Starts: 2}

// fig6Optimize runs the §3.6 DSE at one node for one memory/network choice
// and returns the optimized iteration time.
func fig6Optimize(node tech.Node, s fig6Series) (float64, error) {
	base := uarch.Design{
		Node:    node,
		DRAM:    s.dram,
		Network: s.net,
		Budget:  uarch.A100ClassBudget(),
		Alloc:   uarch.DefaultAllocation(),
	}
	res, err := dse.Optimize(base, fig6Objective, dseOptions)
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}

// fig6 regenerates the technology-node scaling study: execution time per
// iteration for GPT-7B across N12..N1 for the six memory/network series,
// with the architecture DSE-optimized at every point.
func fig6() (Table, error) {
	series := fig6Curves()
	t := Table{
		ID:    "fig6",
		Title: "Technology-node scaling, GPT-7B on 1024 GPUs (64-4-4-4), DSE-optimized per point (s/iter)",
	}
	t.Header = []string{"Series"}
	for _, n := range tech.Nodes {
		t.Header = append(t.Header, n.String())
	}
	for _, s := range series {
		row := []string{fmt.Sprintf("%s-%s", s.dram, s.net)}
		for _, n := range tech.Nodes {
			cost, err := fig6Optimize(n, s)
			if err != nil {
				return Table{}, err
			}
			row = append(row, f2(cost))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"times saturate beyond N5 as layers turn memory-bound (§5.3); HBM2→HBM2e helps, HBM3/4 is network-limited at 100 GB/s",
		"raising the inter-node network from 100 to 400 GB/s shifts the whole HBM4 curve down")
	return t, nil
}

// fig7 regenerates the per-layer GEMM bound-type breakdown across nodes
// for HBM2/HBM3/HBM4 (forward+backward, ms per transformer layer).
func fig7() (Table, error) {
	t := Table{
		ID:    "fig7",
		Title: "GEMM time per transformer layer by bound type across nodes (GPT-7B study)",
		Header: []string{"DRAM", "Node", "compute-bound (ms)", "memory-bound (ms)",
			"total (ms)", "memory share"},
	}
	for _, dram := range []tech.DRAMTech{tech.HBM2, tech.HBM3, tech.HBM4} {
		for _, n := range tech.Nodes {
			base := uarch.Design{
				Node:    n,
				DRAM:    dram,
				Network: tech.IBNDRx8,
				Budget:  uarch.A100ClassBudget(),
				Alloc:   uarch.DefaultAllocation(),
			}
			res, err := dse.Optimize(base, fig6Objective, dseOptions)
			if err != nil {
				return Table{}, err
			}
			sys, err := uarch.SystemFrom(res.Design, 1024, 4)
			if err != nil {
				return Table{}, err
			}
			cb, mb, err := train.LayerGEMMBoundSplit(train.Spec{
				Model:  model.GPT7B(),
				System: sys,
				Map: parallel.Mapping{
					DP: 64, TP: 4, PP: 4, SP: true,
					Microbatch: 1, Schedule: parallel.OneFOneB,
				},
				GlobalBatch: 512,
				Seq:         2048,
				Precision:   tech.BF16,
			})
			if err != nil {
				return Table{}, err
			}
			// Forward + backward GEMMs (the backward mirrors the forward
			// shapes at twice the volume).
			cb *= 3
			mb *= 3
			t.Rows = append(t.Rows, []string{
				dram.String(), n.String(), f2(cb * 1e3), f2(mb * 1e3),
				f2((cb + mb) * 1e3), pct(mb / (cb + mb)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"the memory-bound share grows as node scaling outpaces DRAM bandwidth (§5.3)",
		"faster HBM defers the flip to more advanced nodes")
	return t, nil
}
