package optimus

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/kernels"
	"optimus/internal/roofline"
	"optimus/internal/tech"
	"optimus/internal/uarch"
)

func TestPublicPlannerFlow(t *testing.T) {
	sys, err := NewSystem("a100", 16, "nvlink3", "hdr")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ModelByName("gpt-22b")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), SweepSpec{
		Models: []Model{cfg}, Systems: []*System{sys},
		Precisions: []Precision{BF16}, GlobalBatches: []int{16}, Seqs: []int{2048},
		Constraints: PlanConstraints{TopK: 3},
	})
	if err != nil || len(res.Rows) == 0 || len(res.Rows) > 3 {
		t.Fatalf("planner cell = %d rows, %v", len(res.Rows), err)
	}
	if best := res.Rows[0]; !best.Metrics.Fits || best.Metrics.Time <= 0 {
		t.Errorf("planner returned a bad best: %+v", best)
	}
}

func TestPublicPipelineSimulator(t *testing.T) {
	res, err := SimulatePipeline(PipelineConfig{
		Stages: 4, Microbatches: 8, Chunks: 1, FwdTime: 1, BwdTime: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 33 { // (8 + 3) slots × 3
		t.Errorf("simulated makespan = %g, want 33", res.Total)
	}
}

func TestPublicTaskGraph(t *testing.T) {
	cfg, err := ModelByName("llama2-7b")
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildTaskGraph(TaskGraphSpec{
		Model: cfg,
		Exec: kernels.Exec{
			Batch: 1, Seq: 64, Context: 64, TP: 1,
			Precision: tech.FP16, Phase: kernels.Prefill,
		},
		Layers: 2,
		Engine: roofline.New(arch.A100()),
		Link:   arch.IntraLink(tech.NVLink3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 {
		t.Fatal("empty graph")
	}
	if !strings.Contains(g.DOT("test"), "digraph") {
		t.Error("DOT export broken")
	}
}

func TestPublicEnergyFlow(t *testing.T) {
	sys, err := NewSystem("a100", 8, "nvlink3", "hdr")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ModelByName("gpt-22b")
	if err != nil {
		t.Fatal(err)
	}
	spec := TrainSpec{
		Model: cfg, System: sys,
		Map:         Mapping{DP: 1, TP: 8, PP: 1, Microbatch: 4, Schedule: OneFOneB},
		GlobalBatch: 4, Seq: 2048, Precision: BF16, Recompute: FullRecompute,
	}
	res, err := PredictTraining(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := TrainingEnergy(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgPowerW <= 0 {
		t.Error("no power estimate")
	}
	run, err := PriceTrainingRun(spec, res, 1e9, DefaultPrices())
	if err != nil {
		t.Fatal(err)
	}
	if run.Cost.Total() <= 0 {
		t.Error("no cost estimate")
	}

	isys, err := NewSystem("a100", 1, "nvlink3", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	llama, _ := ModelByName("llama2-7b")
	ispec := InferSpec{
		Model: llama, System: isys, TP: 1, Batch: 1,
		PromptTokens: 100, GenTokens: 50, Precision: FP16,
	}
	ires, err := PredictInference(ispec)
	if err != nil {
		t.Fatal(err)
	}
	irep, err := InferenceEnergy(ispec, ires)
	if err != nil {
		t.Fatal(err)
	}
	if irep.PerDevice.Total() <= 0 {
		t.Error("no inference energy")
	}
}

func TestPublicDeriveFlow(t *testing.T) {
	base := Design{
		Node:    tech.N5,
		DRAM:    tech.HBM2E,
		Network: tech.IBXDRx8,
		Budget:  uarch.A100ClassBudget(),
		Alloc:   uarch.DefaultAllocation(),
	}
	dev, err := DeriveDevice(base)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Validate() != nil {
		t.Error("derived device invalid")
	}
	sys, err := DeriveSystem(base, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumDevices() != 16 {
		t.Errorf("derived system size = %d", sys.NumDevices())
	}
	res, err := OptimizeDesign(base, func(d Design) (float64, error) {
		return 2 - d.Alloc.AreaCore, nil
	}, DSEOptions{MaxIters: 10, Starts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= res.StartCost {
		t.Error("DSE should improve on a trivially improvable objective")
	}
}

func TestPublicJSONConfigs(t *testing.T) {
	var buf bytes.Buffer
	d, err := DeviceByName("h200")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDeviceJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDeviceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != d.Name {
		t.Errorf("round trip name = %q", back.Name)
	}
	if _, err := ReadSystemJSON(strings.NewReader("{")); err == nil {
		t.Error("malformed system JSON should fail")
	}
}
