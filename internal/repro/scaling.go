package repro

import (
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/tech"
	"optimus/internal/train"
)

// extScaling is a weak-scaling study the paper's validation spans but
// never isolates: GPT-175B from 64 to 8192 A100s at a fixed per-GPU
// workload (batch grows with the data-parallel degree), showing where
// the efficiency goes as the cluster grows.
func extScaling() (Table, error) {
	t := Table{
		ID:    "ext-scaling",
		Title: "Weak scaling, GPT-175B on A100-HDR clusters (fixed per-GPU work, TP=8, PP=8)",
		Header: []string{"GPUs", "DP", "Batch", "s/batch", "MFU",
			"compute", "comm", "other", "tokens/s"},
	}
	for _, dp := range []int{1, 2, 8, 32, 128} {
		gpus := dp * 64
		batch := dp * 64 // 64 sequences per pipeline replica
		sys, err := arch.SystemOf(arch.A100(), gpus, 8, tech.NVLink3, tech.IBHDR)
		if err != nil {
			return Table{}, err
		}
		res, err := train.Predict(train.Spec{
			Model:  model.GPT175B(),
			System: sys,
			Map: parallel.Mapping{
				DP: dp, TP: 8, PP: 8, SP: true,
				Microbatch: 1, Schedule: parallel.OneFOneB,
			},
			GlobalBatch: batch,
			Seq:         2048,
			Precision:   tech.BF16,
			Recompute:   memfoot.Selective,
		})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(gpus), fmt.Sprint(dp), fmt.Sprint(batch),
			f1(res.Total), pct(res.MFU),
			pct(res.Compute / res.Total), pct(res.Communication / res.Total),
			pct(res.Other / res.Total),
			fmt.Sprintf("%.0f", float64(batch*2048)/res.Total),
		})
	}
	t.Notes = append(t.Notes,
		"per-GPU work is constant: ideal weak scaling would keep s/batch flat while tokens/s grows linearly",
		"the HDR-IB gradient all-reduce is the efficiency leak: its ring cost is N-independent but exposed (§5.3)")
	return t, nil
}
