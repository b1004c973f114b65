package energy

import (
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/tech"
	"optimus/internal/train"
)

func gpt175Spec(t *testing.T) (train.Spec, train.Result) {
	t.Helper()
	sys, err := arch.DGXA100(64)
	if err != nil {
		t.Fatal(err)
	}
	spec := train.Spec{
		Model:  model.GPT175B(),
		System: sys,
		Map: parallel.Mapping{
			DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		GlobalBatch: 64,
		Seq:         2048,
		Precision:   tech.BF16,
		Recompute:   memfoot.Full,
	}
	res, err := train.Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res
}

func TestTrainingPowerPlausible(t *testing.T) {
	spec, res := gpt175Spec(t)
	rep, err := Training(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	// A busy A100 draws between idle (~95 W) and TDP (400 W); heavy
	// training sits in the upper half.
	if rep.AvgPowerW < 150 || rep.AvgPowerW > 400 {
		t.Errorf("average power %0.f W implausible for a busy A100", rep.AvgPowerW)
	}
	if rep.OverTDP {
		t.Error("average power should not exceed TDP")
	}
	b := rep.PerDevice
	if b.Compute <= 0 || b.DRAM <= 0 || b.Network <= 0 || b.Static <= 0 {
		t.Errorf("all energy components should be positive: %+v", b)
	}
	if rep.SystemJ != b.Total()*64 {
		t.Error("system energy should be 64x per-device")
	}
}

func TestComputeDominatesTraining(t *testing.T) {
	// Dense training is compute-energy dominated on A100-class hardware.
	spec, res := gpt175Spec(t)
	rep, _ := Training(spec, res)
	b := rep.PerDevice
	if b.Compute < b.DRAM || b.Compute < b.Network {
		t.Errorf("training energy should be compute-dominated: %+v", b)
	}
}

func TestInferenceEnergyDRAMHeavy(t *testing.T) {
	// Decode streams weights: DRAM energy rivals or beats compute energy,
	// unlike training.
	sys, err := arch.SystemOf(arch.A100(), 1, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	spec := infer.Spec{
		Model: model.Llama2_13B(), System: sys, TP: 1, Batch: 1,
		PromptTokens: 200, GenTokens: 200, Precision: tech.FP16,
	}
	res, err := infer.Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Inference(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerDevice.DRAM < rep.PerDevice.Compute {
		t.Errorf("decode-heavy inference should be DRAM-energy heavy: %+v", rep.PerDevice)
	}
	if rep.AvgPowerW < 100 || rep.AvgPowerW > 400 {
		t.Errorf("inference power %.0f W implausible", rep.AvgPowerW)
	}
}

func TestPrecisionFactor(t *testing.T) {
	if precisionFactor(tech.FP8) != 0.5 || precisionFactor(tech.FP4) != 0.25 {
		t.Error("finer formats should cost less energy per op")
	}
	if precisionFactor(tech.FP32) != 2 || precisionFactor(tech.BF16) != 1 {
		t.Error("baseline factors wrong")
	}
}

func TestForDeviceFallsBack(t *testing.T) {
	custom := arch.A100()
	custom.Name = "custom-n3-HBM4"
	if forDevice(custom) != deviceTable["A100-80GB"] {
		t.Error("unknown device should fall back to the A100 table")
	}
	if forDevice(arch.H100()).TDPW != 700 {
		t.Error("H100 table wrong")
	}
}

func TestPriceGPT3ClassRun(t *testing.T) {
	// The intro's anchor: "training a GPT-3 transformer model costs
	// around $10M". GPT-3 was trained on ~300B tokens; at public cloud
	// pricing our 64-GPU configuration should land within the
	// single-digit-millions decade.
	spec, res := gpt175Spec(t)
	run, err := PriceTrainingRun(spec, res, 300e9, DefaultPrices())
	if err != nil {
		t.Fatal(err)
	}
	if run.Cost.Total() < 1e6 || run.Cost.Total() > 30e6 {
		t.Errorf("GPT-3-class training cost $%.1fM outside the published decade",
			run.Cost.Total()/1e6)
	}
	if run.Cost.ComputeUSD < run.Cost.EnergyUSD {
		t.Error("amortized accelerator cost should dominate energy cost")
	}
	tokens := 300e9
	if want := int(tokens/(64*2048) + 0.5); run.Iterations != want {
		t.Errorf("iterations = %d, want %d", run.Iterations, want)
	}
	if run.Days <= 0 || run.EnergyMWh <= 0 || run.USDPerPFLOP <= 0 {
		t.Errorf("run summary incomplete: %+v", run)
	}
	t.Logf("GPT-175B/300B tokens on 64 A100s: %.0f days, %.1f MWh, $%.2fM ($%.4f/PFLOP)",
		run.Days, run.EnergyMWh, run.Cost.Total()/1e6, run.USDPerPFLOP)
}

func TestPerfPerTCOImprovesAcrossGenerations(t *testing.T) {
	// The reason the paper cares about perf/TCO: newer silicon buys more
	// useful FLOPs per dollar even at higher unit prices.
	spec, res := gpt175Spec(t)
	a100, err := PriceTrainingRun(spec, res, 10e9, DefaultPrices())
	if err != nil {
		t.Fatal(err)
	}

	h100sys, err := arch.SystemOf(arch.H100(), 64, 8, tech.NVLink4, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	hspec := spec
	hspec.System = h100sys
	hspec.Precision = tech.FP8
	hres, err := train.Predict(hspec)
	if err != nil {
		t.Fatal(err)
	}
	// H100 hours cost ~2x more.
	prices := DefaultPrices()
	prices.GPUHourUSD *= 2
	h100, err := PriceTrainingRun(hspec, hres, 10e9, prices)
	if err != nil {
		t.Fatal(err)
	}
	if h100.USDPerPFLOP >= a100.USDPerPFLOP {
		t.Errorf("H100 $/PFLOP (%.4f) should beat A100 (%.4f) despite 2x pricing",
			h100.USDPerPFLOP, a100.USDPerPFLOP)
	}
}

func TestRunCostArithmetic(t *testing.T) {
	// 3600 s on 10 devices at $2/h = $20; 3.6e6 J = 1 kWh → at PUE 1.2
	// and $0.10/kWh = $0.12.
	c := runCost(3600, 10, 3.6e6, Prices{GPUHourUSD: 2, USDPerKWh: 0.10, PUE: 1.2})
	if c.ComputeUSD != 20 {
		t.Errorf("compute cost = %g, want 20", c.ComputeUSD)
	}
	if c.EnergyUSD != 0.12 {
		t.Errorf("energy cost = %g, want 0.12", c.EnergyUSD)
	}
}

func TestErrors(t *testing.T) {
	spec, res := gpt175Spec(t)
	if _, err := PriceTrainingRun(spec, res, 0, DefaultPrices()); err == nil {
		t.Error("zero token budget should error")
	}
	bad := res
	bad.Total = 0
	if _, err := Training(spec, bad); err == nil {
		t.Error("zero duration should error")
	}
}

// TestRejectsMalformedSpecs pins that a spec without a system, or one its
// predictor would reject, fails with an energy: error instead of
// dereferencing a nil system.
func TestRejectsMalformedSpecs(t *testing.T) {
	spec, res := gpt175Spec(t)
	badMap := spec
	badMap.Map.TP = 3
	for name, s := range map[string]train.Spec{"zero": {}, "no system": {Model: spec.Model}, "bad mapping": badMap} {
		if _, err := Training(s, res); err == nil || !strings.HasPrefix(err.Error(), "energy: ") {
			t.Errorf("Training(%s spec): err = %v, want an energy: error", name, err)
		}
		if _, err := PriceTrainingRun(s, res, 1e9, DefaultPrices()); err == nil {
			t.Errorf("PriceTrainingRun(%s spec) should error", name)
		}
	}
	sys, err := arch.SystemOf(arch.A100(), 1, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	ires := infer.Result{Total: 1}
	for name, s := range map[string]infer.Spec{
		"zero":     {},
		"bad TP":   {Model: model.Llama2_13B(), System: sys, TP: 2, Batch: 1, PromptTokens: 8},
		"no model": {System: sys, TP: 1, Batch: 1, PromptTokens: 8},
	} {
		if _, err := Inference(s, ires); err == nil || !strings.HasPrefix(err.Error(), "energy: ") {
			t.Errorf("Inference(%s spec): err = %v, want an energy: error", name, err)
		}
	}
}
