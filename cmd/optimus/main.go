// Command optimus is the CLI front end of the Optimus-Go performance
// model: predict training iteration times and inference latencies, dissect
// memory footprints, run the design-space exploration, and regenerate
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	optimus train     -model gpt-175b -device a100 -dp 1 -tp 8 -pp 8 -sp -batch 64 -recompute full
//	optimus infer     -model llama2-13b -device h100 -gpus 2 -prompt 200 -gen 200
//	optimus serve     -model llama2-13b -device h100 -gpus 2 -rate 2 -requests 512 -policy paged
//	optimus cluster   -model llama2-13b -device h100 -replicas 4 -routing least-queue -rate 8
//	optimus memory    -model gpt-530b -tp 8 -pp 35 -batch 280 -recompute selective
//	optimus gemmtable -model llama2-13b -device a100
//	optimus dse       -node n5 -dram hbm2e -net xdr-x8
//	optimus plan      -model gpt-175b -gpus 64 -batch 64
//	optimus sweep     -models gpt-175b,gpt-530b -devices a100,h100 -gpus 64,128 -format csv
//	optimus cost      -model gpt-175b -gpus 1024 -batch 1024 -tokens 300e9
//	optimus reproduce table1|table2|table4|fig3..fig9|all
//	optimus validate
//	optimus list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"optimus"
	"optimus/internal/repro"
	"optimus/internal/tech"
	"optimus/internal/uarch"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "train":
		err = cmdTrain(args)
	case "infer":
		err = cmdInfer(args)
	case "serve":
		err = cmdServe(args)
	case "cluster":
		err = cmdCluster(args)
	case "memory":
		err = cmdMemory(args)
	case "gemmtable":
		err = cmdGEMMTable(args)
	case "dse":
		err = cmdDSE(args)
	case "plan":
		err = cmdPlan(args)
	case "sweep":
		err = cmdSweep(args)
	case "cost":
		err = cmdCost(args)
	case "graph":
		err = cmdGraph(args)
	case "reproduce":
		err = cmdReproduce(args)
	case "validate":
		err = cmdValidate(args)
	case "export":
		err = cmdExport(args)
	case "list":
		err = cmdList(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "optimus: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "optimus %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `optimus — analytical performance model for distributed LLM training and inference

commands:
  train      predict training time per batch with its breakdown
  infer      predict end-to-end inference latency
  serve      simulate continuous-batching serving with SLO percentiles; -policy
             picks KV admission (reserve = full-context, paged = vLLM-style blocks
             with LIFO preemption and recompute readmission)
  cluster    simulate a multi-replica serving fleet behind a routing policy
             (round-robin, least-queue, least-kv, tenant-affinity) with
             fleet-wide SLOs; -slo-e2e-p95 bisects the saturation knee
  memory     dissect the per-device training memory footprint
  gemmtable  per-GEMM bound analysis of the prefill phase (Table 4)
  dse        design-space exploration at a technology node (§3.6)
  plan       search for the best parallelization strategy (§5.1)
  sweep      rank a models × systems × settings grid concurrently (-format text|csv|json)
  cost       price a full training run: energy + TCO (§7 future work)
  graph      emit the per-device task graph as Graphviz DOT (Fig. 1)
  reproduce  regenerate a paper experiment (table1..fig9, or "all"; -format text|csv|json)
  validate   check predictions against the published data (Tables 1-2)
  export     dump a preset device as editable JSON (§3.1 external descriptions)
  list       list model, device and experiment presets

run "optimus <command> -h" for flags.`)
}

func parseRecompute(s string) (optimus.Recompute, error) {
	switch strings.ToLower(s) {
	case "none", "no":
		return optimus.NoRecompute, nil
	case "selective", "sel":
		return optimus.SelectiveRecompute, nil
	case "full":
		return optimus.FullRecompute, nil
	default:
		return 0, fmt.Errorf("unknown recompute mode %q (none|selective|full)", s)
	}
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	modelName := fs.String("model", "gpt-175b", "model preset")
	device := fs.String("device", "a100", "device preset")
	deviceFile := fs.String("device-file", "", "JSON device description (overrides -device)")
	intra := fs.String("intra", "nvlink3", "intra-node fabric")
	inter := fs.String("inter", "hdr", "inter-node fabric")
	dp := fs.Int("dp", 1, "data-parallel degree")
	tp := fs.Int("tp", 8, "tensor-parallel degree")
	pp := fs.Int("pp", 8, "pipeline-parallel degree")
	sp := fs.Bool("sp", false, "enable sequence parallelism")
	micro := fs.Int("microbatch", 1, "microbatch size (sequences)")
	batch := fs.Int("batch", 64, "global batch size (sequences)")
	seq := fs.Int("seq", 2048, "sequence length")
	prec := fs.String("precision", "bf16", "GEMM precision (bf16|fp16|fp8|fp4)")
	rec := fs.String("recompute", "full", "activation recomputation (none|selective|full)")
	interleave := fs.Int("interleave", 1, "virtual pipeline stages (interleaved 1F1B when > 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := optimus.ModelByName(*modelName)
	if err != nil {
		return err
	}
	sys, err := systemWithOverride(*device, *deviceFile, *dp**tp**pp, *intra, *inter)
	if err != nil {
		return err
	}
	p, err := tech.ParsePrecision(*prec)
	if err != nil {
		return err
	}
	r, err := parseRecompute(*rec)
	if err != nil {
		return err
	}
	m := optimus.Mapping{DP: *dp, TP: *tp, PP: *pp, SP: *sp, Microbatch: *micro, Schedule: optimus.OneFOneB}
	if *interleave > 1 {
		m.Schedule = optimus.Interleaved1F1B
		m.VirtualStages = *interleave
	}
	res, err := optimus.PredictTraining(optimus.TrainSpec{
		Model: cfg, System: sys, Map: m,
		GlobalBatch: *batch, Seq: *seq, Precision: p, Recompute: r,
	})
	if err != nil {
		return err
	}

	fmt.Printf("%s on %s, mapping %s, batch %d, %v GEMMs, %v recompute\n",
		cfg, sys, m, *batch, p, r)
	fmt.Printf("  time per batch     %s\n", units.FormatSeconds(res.Total))
	fmt.Printf("  compute            %s (gemm %s, elementwise %s, recompute %s)\n",
		units.FormatSeconds(res.Compute), units.FormatSeconds(res.GEMMTime),
		units.FormatSeconds(res.EWTime), units.FormatSeconds(res.RecomputeTime))
	fmt.Printf("  communication      %s (tp %s, pp %s, dp %s)\n",
		units.FormatSeconds(res.Communication), units.FormatSeconds(res.TPComm),
		units.FormatSeconds(res.PPComm), units.FormatSeconds(res.DPComm))
	fmt.Printf("  other              %s (bubble %s, optimizer %s)\n",
		units.FormatSeconds(res.Other), units.FormatSeconds(res.Bubble),
		units.FormatSeconds(res.OptimizerStep))
	fmt.Printf("  model FLOPs        %s   MFU %.1f%%\n", units.FormatFLOPs(res.ModelFLOPs), 100*res.MFU)
	mem := res.MemoryPerDevice
	fmt.Printf("  memory/device      %s (param %s, grad %s, optim %s, act %s)\n",
		units.FormatBytes(mem.Total()), units.FormatBytes(mem.Parameters),
		units.FormatBytes(mem.Gradients), units.FormatBytes(mem.Optimizer),
		units.FormatBytes(mem.Activations))
	if !optimus.FitsDevice(mem, sys.Device.DRAMCapacity()) {
		fmt.Printf("  WARNING: footprint exceeds the %s device memory\n",
			units.FormatBytes(sys.Device.DRAMCapacity()))
	}
	return nil
}

func cmdInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	modelName := fs.String("model", "llama2-13b", "model preset")
	device := fs.String("device", "a100", "device preset")
	deviceFile := fs.String("device-file", "", "JSON device description (overrides -device)")
	intra := fs.String("intra", "nvlink3", "intra-node fabric")
	gpus := fs.Int("gpus", 1, "GPU count (= tensor-parallel degree)")
	batch := fs.Int("batch", 1, "batch size (sequences)")
	prompt := fs.Int("prompt", 200, "prompt (summarization) tokens")
	gen := fs.Int("gen", 200, "generated tokens")
	prec := fs.String("precision", "fp16", "precision")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := optimus.ModelByName(*modelName)
	if err != nil {
		return err
	}
	sys, err := systemWithOverride(*device, *deviceFile, *gpus, *intra, "ndr")
	if err != nil {
		return err
	}
	p, err := tech.ParsePrecision(*prec)
	if err != nil {
		return err
	}
	res, err := optimus.PredictInference(optimus.InferSpec{
		Model: cfg, System: sys, TP: *gpus, Batch: *batch,
		PromptTokens: *prompt, GenTokens: *gen, Precision: p,
	})
	if err != nil {
		return err
	}

	fmt.Printf("%s on %d x %s, B=%d, %d+%d tokens\n", cfg, *gpus, sys.Device.Name, *batch, *prompt, *gen)
	fmt.Printf("  total latency      %s\n", units.FormatSeconds(res.Total))
	fmt.Printf("  prefill            %s (device %s)\n",
		units.FormatSeconds(res.Prefill), units.FormatSeconds(res.PrefillCompute))
	fmt.Printf("  decode             %s (%s/token)\n",
		units.FormatSeconds(res.Decode), units.FormatSeconds(res.PerToken))
	fmt.Printf("  memory time        %s\n", units.FormatSeconds(res.MemoryTime))
	fmt.Printf("  communication      %s\n", units.FormatSeconds(res.CommTime))
	fmt.Printf("  weights/device     %s, kv-cache %s (fits: %v)\n",
		units.FormatBytes(res.Footprint.Weights), units.FormatBytes(res.Footprint.KVCache), res.Fits)
	return nil
}

func cmdMemory(args []string) error {
	fs := flag.NewFlagSet("memory", flag.ExitOnError)
	modelName := fs.String("model", "gpt-175b", "model preset")
	dp := fs.Int("dp", 1, "data-parallel degree")
	tp := fs.Int("tp", 8, "tensor-parallel degree")
	pp := fs.Int("pp", 8, "pipeline-parallel degree")
	sp := fs.Bool("sp", false, "sequence parallelism")
	micro := fs.Int("microbatch", 1, "microbatch size")
	batch := fs.Int("batch", 64, "global batch size")
	seq := fs.Int("seq", 2048, "sequence length")
	capGB := fs.Float64("capacity", 80, "device memory in GB for the fit check")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := optimus.ModelByName(*modelName)
	if err != nil {
		return err
	}
	fmt.Printf("%s, mapping %d-%d-%d, microbatch %d, batch %d, seq %d\n",
		cfg, *dp, *tp, *pp, *micro, *batch, *seq)
	for _, r := range []optimus.Recompute{optimus.NoRecompute, optimus.SelectiveRecompute, optimus.FullRecompute} {
		bd, err := optimus.TrainingMemory(optimus.MemorySpec{
			Model: cfg,
			Map:   optimus.Mapping{DP: *dp, TP: *tp, PP: *pp, SP: *sp, Microbatch: *micro, Schedule: optimus.OneFOneB},
			Seq:   *seq, GlobalBatch: *batch, Recompute: r,
		})
		if err != nil {
			return err
		}
		fits := ""
		if !optimus.FitsDevice(bd, *capGB*1e9) {
			fits = fmt.Sprintf("  [exceeds %.0f GB]", *capGB)
		}
		fmt.Printf("  %-9s total %8s  param %8s  grad %8s  optim %8s  act %8s%s\n",
			r, units.FormatBytes(bd.Total()), units.FormatBytes(bd.Parameters),
			units.FormatBytes(bd.Gradients), units.FormatBytes(bd.Optimizer),
			units.FormatBytes(bd.Activations), fits)
	}
	return nil
}

func cmdGEMMTable(args []string) error {
	fs := flag.NewFlagSet("gemmtable", flag.ExitOnError)
	modelName := fs.String("model", "llama2-13b", "model preset")
	device := fs.String("device", "a100", "device preset")
	gpus := fs.Int("gpus", 1, "GPU count (TP degree)")
	batch := fs.Int("batch", 1, "batch size")
	prompt := fs.Int("prompt", 200, "prompt tokens")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := optimus.ModelByName(*modelName)
	if err != nil {
		return err
	}
	sys, err := optimus.NewSystem(*device, *gpus, "nvlink4", "ndr")
	if err != nil {
		return err
	}
	rows, err := optimus.PrefillGEMMTable(optimus.InferSpec{
		Model: cfg, System: sys, TP: *gpus, Batch: *batch,
		PromptTokens: *prompt, GenTokens: 1, Precision: optimus.FP16,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s prefill GEMMs on %s (B=%d, %d tokens)\n", cfg.Name, sys.Device.Name, *batch, *prompt)
	for _, r := range rows {
		fmt.Printf("  %-30s %10s  %-8s %s\n", r.Function,
			units.FormatSeconds(r.Time), r.Bound, units.FormatBytes(r.Bytes))
	}
	return nil
}

func cmdDSE(args []string) error {
	fs := flag.NewFlagSet("dse", flag.ExitOnError)
	node := fs.String("node", "n5", "logic node (n12..n1)")
	dram := fs.String("dram", "hbm2e", "DRAM technology")
	net := fs.String("net", "ndr-x8", "inter-node network technology")
	modelName := fs.String("model", "gpt-7b", "workload model")
	gpus := fs.Int("gpus", 1024, "system size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := tech.ParseNode(*node)
	if err != nil {
		return err
	}
	d, err := tech.ParseDRAM(*dram)
	if err != nil {
		return err
	}
	nt, err := tech.ParseNetwork(*net)
	if err != nil {
		return err
	}
	cfg, err := optimus.ModelByName(*modelName)
	if err != nil {
		return err
	}
	base := optimus.Design{
		Node: n, DRAM: d, Network: nt,
		Budget: uarch.A100ClassBudget(),
		Alloc:  uarch.DefaultAllocation(),
	}
	objective := func(des optimus.Design) (float64, error) {
		sys, derr := optimus.DeriveSystem(des, *gpus, 4)
		if derr != nil {
			return 0, derr
		}
		res, derr := optimus.PredictTraining(optimus.TrainSpec{
			Model: cfg, System: sys,
			Map:         optimus.Mapping{DP: *gpus / 16, TP: 4, PP: 4, SP: true, Microbatch: 1, Schedule: optimus.OneFOneB},
			GlobalBatch: *gpus / 2, Seq: 2048, Precision: optimus.BF16,
		})
		if derr != nil {
			return 0, derr
		}
		return res.Total, nil
	}
	res, err := optimus.OptimizeDesign(base, objective, optimus.DSEOptions{})
	if err != nil {
		return err
	}
	dev, err := optimus.DeriveDevice(res.Design)
	if err != nil {
		return err
	}
	fmt.Printf("DSE at %v / %v / %v (%s on %d GPUs)\n", n, d, nt, cfg.Name, *gpus)
	fmt.Printf("  iteration time  %s (from %s at the default floorplan, %d evals)\n",
		units.FormatSeconds(res.Cost), units.FormatSeconds(res.StartCost), res.Evals)
	a := res.Design.Alloc
	fmt.Printf("  area  core %.2f  sram %.2f  mem-io %.2f  net-io %.2f\n", a.AreaCore, a.AreaSRAM, a.AreaMemIO, a.AreaNetIO)
	fmt.Printf("  power core %.2f  sram %.2f  mem-io %.2f  net-io %.2f\n", a.PowerCore, a.PowerSRAM, a.PowerMemIO, a.PowerNetIO)
	fmt.Printf("  derived device: %s fp16, L2 %s @ %s, HBM %s @ %s\n",
		units.FormatFLOPs(dev.Compute[optimus.FP16]),
		units.FormatBytes(dev.Mem[1].Capacity), units.FormatRate(dev.Mem[1].BW),
		units.FormatBytes(dev.DRAMCapacity()), units.FormatRate(dev.DRAMLevel().BW))
	return nil
}

func cmdReproduce(args []string) error {
	fs := flag.NewFlagSet("reproduce", flag.ExitOnError)
	format := fs.String("format", "text", "output format (text|csv|json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("which experiment? one of %s, or all", strings.Join(optimus.Experiments(), ", "))
	}
	ids := args
	if args[0] == "all" {
		ids = optimus.Experiments()
	}
	for _, id := range ids {
		tb, err := optimus.Reproduce(id)
		if err != nil {
			return err
		}
		out, err := tb.Render(*format)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fail := false

	tb, err := optimus.Reproduce("table1")
	if err != nil {
		return err
	}
	fmt.Println(tb)
	var errs []float64
	for i, c := range valdata.Table1() {
		spec, perr := repro.TrainSpecFor(c)
		if perr != nil {
			return perr
		}
		res, perr := optimus.PredictTraining(spec)
		if perr != nil {
			return perr
		}
		e := units.RelErr(res.Total, c.RefSeconds)
		errs = append(errs, e)
		if e > 0.12 {
			fmt.Printf("FAIL table1 row %d (%s): %.1f%% > 12%%\n", i, c.Model, 100*e)
			fail = true
		}
	}
	if m := units.Mean(errs); m > 0.08 {
		fmt.Printf("FAIL table1 mean error %.1f%% > 8%%\n", 100*m)
		fail = true
	} else {
		fmt.Printf("PASS table1: mean error %.1f%%, max %.1f%%\n", 100*units.Mean(errs), 100*units.Max(errs))
	}

	tb2, err := optimus.Reproduce("table2")
	if err != nil {
		return err
	}
	fmt.Println(tb2)
	fmt.Println("PASS table2 (gates enforced by the table generator tests)")

	if fail {
		return fmt.Errorf("validation gates exceeded")
	}
	return nil
}

func cmdList(args []string) error {
	fmt.Println("models:")
	for _, m := range optimus.Models() {
		fmt.Printf("  %s\n", m)
	}
	fmt.Println("devices: a100, a100-40gb, h100, h200, b100, b200, v100, p4, tpuv4")
	fmt.Println("experiments:", strings.Join(optimus.Experiments(), ", "))
	fmt.Println("logic nodes: n12, n10, n7, n5, n3, n2, n1")
	fmt.Println("dram: gddr6, hbm2, hbm2e, hbm3, hbm3-sxm, hbm3e, hbm4, hbmx")
	fmt.Println("networks: hdr, ndr, ndr-x8, xdr-x8, gdr-x8, nvlink3, nvlink4, nvlink5, nvs")
	return nil
}
