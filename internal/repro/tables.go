package repro

import (
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

// TrainSpecFor builds the training experiment for one Table 1 row on the
// paper's A100 validation platform.
func TrainSpecFor(c valdata.TrainCase) (train.Spec, error) {
	cfg, err := model.ByName(c.Model)
	if err != nil {
		return train.Spec{}, err
	}
	sys, err := arch.DGXA100(c.GPUs)
	if err != nil {
		return train.Spec{}, err
	}
	return train.Spec{
		Model:  cfg,
		System: sys,
		Map: parallel.Mapping{
			DP: c.DP, TP: c.TP, PP: c.PP, SP: c.SP,
			Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		GlobalBatch: c.Batch,
		Seq:         2048,
		Precision:   tech.BF16,
		Recompute:   c.Recompute,
	}, nil
}

// table1 regenerates the training-time validation.
func table1() (Table, error) {
	t := Table{
		ID:    "table1",
		Title: "Training time per batch on A100 systems vs published Megatron-LM data",
		Header: []string{"Model", "#GPUs", "Batch", "DP-TP-PP-SP", "Recompute",
			"t_ref (s)", "t_paper (s)", "t_ours (s)", "err"},
	}
	var errs []float64
	for _, c := range valdata.Table1() {
		spec, err := TrainSpecFor(c)
		if err != nil {
			return Table{}, err
		}
		res, err := train.Predict(spec)
		if err != nil {
			return Table{}, err
		}
		e := units.RelErr(res.Total, c.RefSeconds)
		errs = append(errs, e)
		t.Rows = append(t.Rows, []string{
			c.Model, fmt.Sprint(c.GPUs), fmt.Sprint(c.Batch), spec.Map.String(),
			c.Recompute.String(), f1(c.RefSeconds), f1(c.PaperPredSeconds),
			f1(res.Total), pct(e),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean error %s, max %s (paper: mostly below 10%%)", pct(units.Mean(errs)), pct(units.Max(errs))),
		"GPT-22B row uses TP=8, PP=1: the paper's printed 1-8-8-1 is inconsistent with its 8-GPU count")
	return t, nil
}

// InferSpecFor builds the Table 2 experiment for one row and device
// generation.
func InferSpecFor(modelName string, gpus int, dev arch.Device, nv tech.NetworkTech) (infer.Spec, error) {
	cfg, err := model.ByName(modelName)
	if err != nil {
		return infer.Spec{}, err
	}
	sys, err := arch.SystemOf(dev, gpus, 8, nv, tech.IBNDR)
	if err != nil {
		return infer.Spec{}, err
	}
	return infer.Spec{
		Model: cfg, System: sys, TP: gpus, Batch: 1,
		PromptTokens: 200, GenTokens: 200, Precision: tech.FP16,
	}, nil
}

// table2 regenerates the inference-latency validation.
func table2() (Table, error) {
	t := Table{
		ID:    "table2",
		Title: "Inference latency (B=1, 200+200 tokens) vs NVIDIA published data",
		Header: []string{"Model", "#GPUs", "TP",
			"A100 ref (ms)", "A100 ours (ms)", "err",
			"H100 ref (ms)", "H100 ours (ms)", "err"},
	}
	var errs []float64
	for _, c := range valdata.Table2() {
		specA, err := InferSpecFor(c.Model, c.GPUs, arch.A100(), tech.NVLink3)
		if err != nil {
			return Table{}, err
		}
		resA, err := infer.Predict(specA)
		if err != nil {
			return Table{}, err
		}
		specH, err := InferSpecFor(c.Model, c.GPUs, arch.H100(), tech.NVLink4)
		if err != nil {
			return Table{}, err
		}
		resH, err := infer.Predict(specH)
		if err != nil {
			return Table{}, err
		}
		eA := units.RelErr(resA.Total*1e3, c.RefA100Ms)
		eH := units.RelErr(resH.Total*1e3, c.RefH100Ms)
		errs = append(errs, eA, eH)
		t.Rows = append(t.Rows, []string{
			c.Model, fmt.Sprint(c.GPUs), fmt.Sprint(c.GPUs),
			f1(c.RefA100Ms), ms(resA.Total), pct(eA),
			f1(c.RefH100Ms), ms(resH.Total), pct(eH),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean error %s, max %s (paper: within 13%%, one anomalous 8-GPU corner)",
			pct(units.Mean(errs)), pct(units.Max(errs))))
	return t, nil
}

// table4 regenerates the per-GEMM bound analysis of the Llama2-13B
// summarization phase.
func table4() (Table, error) {
	t := Table{
		ID:    "table4",
		Title: "Per-GEMM time and bound type, Llama2-13B prefill (B=1, 200 tokens)",
		Header: []string{"GEMM function",
			"A100 t (µs)", "A100 bound", "paper A100",
			"H100 t (µs)", "H100 bound", "paper H100"},
	}
	specA, err := InferSpecFor("Llama2-13B", 1, arch.A100(), tech.NVLink3)
	if err != nil {
		return Table{}, err
	}
	specH, err := InferSpecFor("Llama2-13B", 1, arch.H100(), tech.NVLink4)
	if err != nil {
		return Table{}, err
	}
	rowsA, err := infer.PrefillGEMMTable(specA)
	if err != nil {
		return Table{}, err
	}
	rowsH, err := infer.PrefillGEMMTable(specH)
	if err != nil {
		return Table{}, err
	}
	paper := valdata.Table4()
	for i := range rowsA {
		t.Rows = append(t.Rows, []string{
			rowsA[i].Function,
			us(rowsA[i].Time), boundLabel(rowsA[i]), fmt.Sprintf("%s (%.0fµs)", paper[i].A100Bound, paper[i].A100Us),
			us(rowsH[i].Time), boundLabel(rowsH[i]), fmt.Sprintf("%s (%.0fµs)", paper[i].H100Bound, paper[i].H100Us),
		})
	}
	t.Notes = append(t.Notes,
		"single-head kernels are dominated by kernel-launch software overhead; the paper files them under memory-bound",
		"the paper's absolute µs assume a higher effective peak; bound classification and A100:H100 ratios are the validated shape")
	return t, nil
}

// boundLabel maps the roofline classification onto the paper's
// compute/memory dichotomy: launch-dominated GEMV kernels are reported as
// memory-bound, as in Table 4.
func boundLabel(r infer.GEMMReport) string {
	if r.Bound == "launch" {
		return "memory*"
	}
	return r.Bound
}
