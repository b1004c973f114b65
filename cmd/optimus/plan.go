package main

import (
	"context"
	"flag"
	"fmt"

	"optimus"
	"optimus/internal/tech"
	"optimus/internal/units"
)

// cmdPlan runs the automatic parallelization planner (§5.1).
func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	modelName := fs.String("model", "gpt-175b", "model preset")
	device := fs.String("device", "a100", "device preset")
	intra := fs.String("intra", "nvlink3", "intra-node fabric")
	inter := fs.String("inter", "hdr", "inter-node fabric")
	gpus := fs.Int("gpus", 64, "device count")
	batch := fs.Int("batch", 64, "global batch size")
	seq := fs.Int("seq", 2048, "sequence length")
	prec := fs.String("precision", "bf16", "GEMM precision")
	topK := fs.Int("top", 5, "strategies to show")
	overflow := fs.Bool("allow-overflow", false, "also rank memory-overflowing strategies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := optimus.ModelByName(*modelName)
	if err != nil {
		return err
	}
	sys, err := optimus.NewSystem(*device, *gpus, *intra, *inter)
	if err != nil {
		return err
	}
	p, err := tech.ParsePrecision(*prec)
	if err != nil {
		return err
	}
	rows, err := planMappings(cfg, sys, *batch, *seq, p,
		optimus.PlanConstraints{TopK: *topK, AllowOverflow: *overflow})
	if err != nil {
		return err
	}
	fmt.Printf("best strategies for %s on %s (batch %d):\n", cfg.Name, sys, *batch)
	fmt.Printf("  %-28s %-10s %12s %6s %10s %5s\n",
		"mapping", "recompute", "s/batch", "MFU", "mem/dev", "fits")
	for _, r := range rows {
		fits := "yes"
		if !r.Metrics.Fits {
			fits = "NO"
		}
		fmt.Printf("  %-28s %-10s %12.2f %5.0f%% %10s %5s\n",
			r.Point.Map.String(), r.Point.Recompute, r.Metrics.Time, 100*r.Metrics.MFU,
			units.FormatBytes(r.Metrics.Memory.Total()), fits)
	}
	return nil
}

// planMappings ranks the parallelization strategies of one model on one
// system at one global batch, sequence length and precision: the planner
// is the one-cell training sweep.
func planMappings(cfg optimus.Model, sys *optimus.System, batch, seq int, p optimus.Precision, c optimus.PlanConstraints) ([]optimus.SweepRow, error) {
	res, err := optimus.Sweep(context.Background(), optimus.SweepSpec{
		Models: []optimus.Model{cfg}, Systems: []*optimus.System{sys},
		Precisions: []optimus.Precision{p}, GlobalBatches: []int{batch}, Seqs: []int{seq},
		Constraints: c,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("no feasible strategy for %s on %d devices (batch %d)",
			cfg.Name, sys.NumDevices(), batch)
	}
	return res.Rows, nil
}

// cmdCost prices a full training run (the §7 future-work TCO analysis).
func cmdCost(args []string) error {
	fs := flag.NewFlagSet("cost", flag.ExitOnError)
	modelName := fs.String("model", "gpt-175b", "model preset")
	device := fs.String("device", "a100", "device preset")
	intra := fs.String("intra", "nvlink3", "intra-node fabric")
	inter := fs.String("inter", "hdr", "inter-node fabric")
	gpus := fs.Int("gpus", 64, "device count")
	batch := fs.Int("batch", 64, "global batch size")
	tokens := fs.Float64("tokens", 300e9, "training token budget")
	gpuHour := fs.Float64("gpu-hour", 2.0, "amortized $ per device-hour")
	kwh := fs.Float64("kwh", 0.10, "$ per kWh")
	pue := fs.Float64("pue", 1.2, "datacenter PUE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := optimus.ModelByName(*modelName)
	if err != nil {
		return err
	}
	sys, err := optimus.NewSystem(*device, *gpus, *intra, *inter)
	if err != nil {
		return err
	}
	rows, err := planMappings(cfg, sys, *batch, 2048, optimus.BF16, optimus.PlanConstraints{})
	if err != nil {
		return err
	}
	best := rows[0].Point
	spec := optimus.TrainSpec{
		Model: cfg, System: sys, Map: best.Map,
		GlobalBatch: *batch, Seq: 2048, Precision: optimus.BF16,
		Recompute: best.Recompute,
	}
	res, err := optimus.PredictTraining(spec)
	if err != nil {
		return err
	}
	rep, err := optimus.TrainingEnergy(spec, res)
	if err != nil {
		return err
	}
	run, err := optimus.PriceTrainingRun(spec, res, *tokens,
		optimus.Prices{GPUHourUSD: *gpuHour, USDPerKWh: *kwh, PUE: *pue})
	if err != nil {
		return err
	}
	fmt.Printf("%s for %.0fB tokens on %s\n", cfg.Name, *tokens/1e9, sys)
	fmt.Printf("  strategy          %s, %v recompute (auto-planned)\n", best.Map, best.Recompute)
	fmt.Printf("  iteration         %s at %.0f W/device average\n",
		units.FormatSeconds(res.Total), rep.AvgPowerW)
	fmt.Printf("  run length        %d iterations, %.0f days\n", run.Iterations, run.Days)
	fmt.Printf("  energy            %.1f MWh\n", run.EnergyMWh)
	fmt.Printf("  cost              $%.2fM total ($%.2fM compute + $%.2fM energy)\n",
		run.Cost.Total()/1e6, run.Cost.ComputeUSD/1e6, run.Cost.EnergyUSD/1e6)
	fmt.Printf("  perf per TCO      $%.4f per useful PFLOP\n", run.USDPerPFLOP)
	return nil
}
