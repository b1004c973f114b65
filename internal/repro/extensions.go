package repro

import (
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/energy"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/train"
	"optimus/internal/valdata"
)

// Extension experiments: studies enabled by the validated model but not
// printed in the paper. They are registered alongside the paper's tables
// and figures ("ext-flash", "ext-tco") and carry the same test treatment.

// extFlash sweeps sequence length for standard vs FlashAttention training
// on the GPT-175B validation platform — quantifying the §1.1 discussion
// ("execution time and memory complexity of attention grows quadratically
// with sequence length"; FlashAttention trades FLOPs for DRAM traffic).
func extFlash() (Table, error) {
	t := Table{
		ID:    "ext-flash",
		Title: "Standard vs FlashAttention training time, GPT-175B on 64 A100s (equal token budget)",
		Header: []string{"Seq", "Batch", "std (s)", "flash (s)", "speedup",
			"std act (GB)", "flash-class act (GB)"},
	}
	base, err := TrainSpecFor(valdata.Table1()[1]) // the GPT-175B row
	if err != nil {
		return Table{}, err
	}
	base.Recompute = memfoot.Selective
	for _, p := range []struct{ seq, batch int }{
		{2048, 64}, {4096, 32}, {8192, 16}, {16384, 8},
	} {
		std := base
		std.Seq = p.seq
		std.GlobalBatch = p.batch
		sres, err := train.Predict(std)
		if err != nil {
			return Table{}, err
		}
		fl := std
		fl.Flash = true
		fres, err := train.Predict(fl)
		if err != nil {
			return Table{}, err
		}
		// Memory: flash never materializes the attention quadratic — the
		// Eq. (2) selective discount models exactly those tensors.
		noRec := std
		noRec.Recompute = memfoot.NoRecompute
		nres, err := train.Predict(noRec)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.seq), fmt.Sprint(p.batch),
			f1(sres.Total), f1(fres.Total),
			fmt.Sprintf("%.2fx", sres.Total/fres.Total),
			gb(nres.MemoryPerDevice.Activations),
			gb(sres.MemoryPerDevice.Activations),
		})
	}
	t.Notes = append(t.Notes,
		"equal token budget per row (seq × batch constant); the quadratic attention term grows with seq",
		"flash-class activations are the Eq. 2 selective figures: the score/dropout tensors are never stored")
	return t, nil
}

// extTCO prices GPT-175B training per generation — the perf/TCO analysis
// of the paper's introduction, regenerated with the §7 energy model.
func extTCO() (Table, error) {
	t := Table{
		ID:    "ext-tco",
		Title: "Cost to train GPT-175B for 300B tokens across GPU generations (8192 GPUs, Fig. 5 configs)",
		Header: []string{"Platform", "days", "energy (MWh)", "compute ($M)",
			"energy ($M)", "total ($M)", "$/PFLOP"},
	}
	// Per-generation device-hour pricing (public cloud classes).
	hourly := map[string]float64{
		"A100-HDR": 2.0, "H100-NDR": 4.0, "H100-NVS": 4.0,
		"H200-NVS-L": 4.5, "B200-NDR": 6.0, "B200-NVS": 6.0, "B200-NVS-L": 6.0,
	}
	for _, p := range fig5Platforms() {
		res, err := fig5Predict(p)
		if err != nil {
			return Table{}, err
		}
		spec, err := fig5Spec(p)
		if err != nil {
			return Table{}, err
		}
		prices := energy.DefaultPrices()
		prices.GPUHourUSD = hourly[p.name]
		run, err := energy.PriceTrainingRun(spec, res, 300e9, prices)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			p.name, f1(run.Days), f1(run.EnergyMWh),
			f2(run.Cost.ComputeUSD / 1e6), f2(run.Cost.EnergyUSD / 1e6),
			f2(run.Cost.Total() / 1e6),
			fmt.Sprintf("%.4f", run.USDPerPFLOP),
		})
	}
	t.Notes = append(t.Notes,
		"the intro's '$10M to train GPT-3' anchor: A100-class pricing lands in that decade at realistic MFU",
		"newer generations cost more per hour but less per useful PFLOP — the perf/TCO trend the paper motivates")
	return t, nil
}

// fig5Spec rebuilds the train.Spec behind a Fig. 5 platform for the TCO
// extension.
func fig5Spec(p fig5Platform) (train.Spec, error) {
	sys, err := arch.SystemOf(p.dev, 8192, 8, p.intra, p.inter)
	if err != nil {
		return train.Spec{}, err
	}
	return train.Spec{
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
	}, nil
}
