// Extension benchmarks: the subsystems built beyond the paper's evaluation
// (task graph, pipeline simulator, auto-planner, energy/TCO model,
// flash attention, throughput sweeps).
package optimus

import (
	"context"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/energy"
	"optimus/internal/graph"
	"optimus/internal/infer"
	"optimus/internal/kernels"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/pipesim"
	"optimus/internal/repro"
	"optimus/internal/roofline"
	"optimus/internal/sweep"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/valdata"
)

// BenchmarkAblationFlashAttention compares standard vs IO-aware fused
// attention on a long-context GPT-175B layer (§1.1's trade-off).
func BenchmarkAblationFlashAttention(b *testing.B) {
	spec, err := repro.TrainSpecFor(valdata.Table1()[1])
	if err != nil {
		b.Fatal(err)
	}
	spec.Recompute = memfoot.Selective
	spec.Seq = 8192
	spec.GlobalBatch = 16
	var std, fl train.Result
	for i := 0; i < b.N; i++ {
		s := spec
		std, err = train.Predict(s)
		if err != nil {
			b.Fatal(err)
		}
		s.Flash = true
		fl, err = train.Predict(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(std.Total/fl.Total, "std-over-flash-8k")
}

// BenchmarkPipelineSimulator runs the discrete-event 1F1B schedule at the
// GPT-1008B scale (PP=64, 512 microbatches) and reports the simulated
// bubble fraction against the closed form.
func BenchmarkPipelineSimulator(b *testing.B) {
	cfg := pipesim.Config{
		Stages: 64, Microbatches: 512, Chunks: 1,
		FwdTime: 0.05, BwdTime: 0.10, XferTime: 0.001,
	}
	var res pipesim.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = pipesim.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BubbleFraction, "bubble-fraction")
}

// BenchmarkPlan plans GPT-175B on 64 A100s — the planner's one-cell
// training sweep — and reports the best MFU found.
func BenchmarkPlan(b *testing.B) {
	sys, err := arch.DGXA100(64)
	if err != nil {
		b.Fatal(err)
	}
	spec := sweep.Spec{
		Models: []model.Config{model.GPT175B()}, Systems: []*arch.System{sys},
		Precisions: []tech.Precision{tech.BF16}, GlobalBatches: []int{64}, Seqs: []int{2048},
	}
	var res sweep.Result
	for i := 0; i < b.N; i++ {
		if res, err = sweep.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Rows[0].Metrics.MFU, "best-mfu-%")
}

// BenchmarkEnergyModel prices a GPT-3-class training run and reports the
// total in millions of dollars (intro: "around $10M").
func BenchmarkEnergyModel(b *testing.B) {
	spec, err := repro.TrainSpecFor(valdata.Table1()[1])
	if err != nil {
		b.Fatal(err)
	}
	res, err := train.Predict(spec)
	if err != nil {
		b.Fatal(err)
	}
	var run energy.TrainingRun
	for i := 0; i < b.N; i++ {
		run, err = energy.PriceTrainingRun(spec, res, 300e9, energy.DefaultPrices())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(run.Cost.Total()/1e6, "gpt3-run-$M")
}

// BenchmarkTaskGraph builds and analyzes the 40-layer Llama2-13B forward
// graph.
func BenchmarkTaskGraph(b *testing.B) {
	spec := graph.BuildSpec{
		Model: model.Llama2_13B(),
		Exec: kernels.Exec{
			Batch: 1, Seq: 200, Context: 200, TP: 1,
			Precision: tech.FP16, Phase: kernels.Prefill,
		},
		Layers: 40,
		Engine: roofline.New(arch.A100()),
		Link:   arch.IntraLink(tech.NVLink3),
	}
	var cp float64
	for i := 0; i < b.N; i++ {
		g, err := graph.BuildForward(spec)
		if err != nil {
			b.Fatal(err)
		}
		cp, _ = g.CriticalPath()
	}
	b.ReportMetric(cp*1e3, "critical-path-ms")
}

// BenchmarkThroughputSweep evaluates the §6.1 batch-size frontier and
// reports the B=16 over B=1 latency growth (paper: "rather modest").
func BenchmarkThroughputSweep(b *testing.B) {
	sys, err := arch.SystemOf(arch.A100(), 1, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		b.Fatal(err)
	}
	base := infer.Spec{
		Model: model.Llama2_13B(), System: sys, TP: 1, Batch: 1,
		PromptTokens: 200, GenTokens: 200, Precision: tech.FP16,
	}
	var pts []infer.ThroughputPoint
	for i := 0; i < b.N; i++ {
		pts, err = infer.ThroughputSweep(base, []int{1, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[1].Latency/pts[0].Latency, "b16-latency-growth-x")
}
