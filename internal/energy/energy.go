// Package energy implements the energy and cost model the paper names as
// its next step ("integrating a cost and an energy model into the current
// performance modeling framework, and performing complete performance per
// TCO analysis" — §7, motivated by the intro's training-cost discussion).
//
// Energy is accounted bottom-up from the performance model's own
// quantities: FLOPs executed, off-chip bytes moved, network bytes moved,
// and elapsed time:
//
//	E = FLOPs·e_flop(precision) + DRAM bytes·e_dram + wire bytes·e_net + t·P_static
//
// Cost combines amortized accelerator pricing with energy at a datacenter
// PUE — the performance-per-TCO lens of the paper's introduction.
package energy

import (
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/tech"
	"optimus/internal/train"
)

// DeviceEnergy holds one accelerator's energy coefficients.
type DeviceEnergy struct {
	// PJPerFLOP is dynamic compute energy per operation at FP16; finer
	// formats halve it per halving step (FP8 ×0.5, FP4 ×0.25), FP32
	// doubles it.
	PJPerFLOP float64
	// DRAMPJPerByte is off-chip access energy (pJ/byte).
	DRAMPJPerByte float64
	// NetPJPerByte is network interface energy (pJ/byte).
	NetPJPerByte float64
	// StaticW is the always-on power (leakage, fans, HBM refresh, idle
	// SMs) drawn for the whole duration.
	StaticW float64
	// TDPW caps the average power; the model reports but does not clamp.
	TDPW float64
}

// coefficient table per device preset, derived from public TDP and
// process-node figures: dynamic FP16 energy ≈ 60-70% of TDP/peak.
var deviceTable = map[string]DeviceEnergy{
	"A100-80GB": {PJPerFLOP: 0.80, DRAMPJPerByte: 28, NetPJPerByte: 60, StaticW: 95, TDPW: 400},
	"A100-40GB": {PJPerFLOP: 0.80, DRAMPJPerByte: 30, NetPJPerByte: 60, StaticW: 90, TDPW: 400},
	"H100-SXM":  {PJPerFLOP: 0.45, DRAMPJPerByte: 24, NetPJPerByte: 50, StaticW: 130, TDPW: 700},
	"H200":      {PJPerFLOP: 0.45, DRAMPJPerByte: 22, NetPJPerByte: 50, StaticW: 135, TDPW: 700},
	"B100":      {PJPerFLOP: 0.30, DRAMPJPerByte: 20, NetPJPerByte: 40, StaticW: 140, TDPW: 700},
	"B200":      {PJPerFLOP: 0.30, DRAMPJPerByte: 20, NetPJPerByte: 40, StaticW: 180, TDPW: 1000},
	"V100":      {PJPerFLOP: 1.30, DRAMPJPerByte: 31, NetPJPerByte: 70, StaticW: 70, TDPW: 300},
	"P4":        {PJPerFLOP: 2.50, DRAMPJPerByte: 56, NetPJPerByte: 80, StaticW: 25, TDPW: 75},
	"TPUv4":     {PJPerFLOP: 0.55, DRAMPJPerByte: 28, NetPJPerByte: 45, StaticW: 60, TDPW: 250},
}

// forDevice returns the energy coefficients for a preset device, or a
// generic A100-class table for derived/custom devices.
func forDevice(d arch.Device) DeviceEnergy {
	if e, ok := deviceTable[d.Name]; ok {
		return e
	}
	return deviceTable["A100-80GB"]
}

// precisionFactor scales compute energy with the tensor format.
func precisionFactor(p tech.Precision) float64 {
	switch p {
	case tech.FP4:
		return 0.25
	case tech.FP8, tech.INT8:
		return 0.5
	case tech.FP32, tech.TF32:
		return 2
	default:
		return 1
	}
}

// Breakdown is an energy dissection in joules.
type Breakdown struct {
	Compute float64
	DRAM    float64
	Network float64
	Static  float64
}

// Total sums the breakdown.
func (b Breakdown) Total() float64 { return b.Compute + b.DRAM + b.Network + b.Static }

// Report is an energy+power summary for one workload execution.
type Report struct {
	// PerDevice is one device's energy for the run.
	PerDevice Breakdown
	// SystemJ is the whole-system energy.
	SystemJ float64
	// AvgPowerW is the mean per-device power draw.
	AvgPowerW float64
	// OverTDP flags average power above the device TDP — a sign the
	// coefficient table and the predicted time disagree.
	OverTDP bool
}

// analyze converts per-device activity into a report.
func analyze(dev arch.Device, prec tech.Precision, flops, dramBytes, wireBytes, seconds float64, devices int) (Report, error) {
	if seconds <= 0 {
		return Report{}, fmt.Errorf("energy: non-positive duration %g", seconds)
	}
	e := forDevice(dev)
	b := Breakdown{
		Compute: flops * e.PJPerFLOP * precisionFactor(prec) * 1e-12,
		DRAM:    dramBytes * e.DRAMPJPerByte * 1e-12,
		Network: wireBytes * e.NetPJPerByte * 1e-12,
		Static:  seconds * e.StaticW,
	}
	rep := Report{
		PerDevice: b,
		SystemJ:   b.Total() * float64(devices),
		AvgPowerW: b.Total() / seconds,
	}
	rep.OverTDP = rep.AvgPowerW > e.TDPW
	return rep, nil
}

// Training returns the energy report of one training iteration predicted
// by internal/train. A spec train.Predict would reject is an error.
func Training(spec train.Spec, res train.Result) (Report, error) {
	if err := spec.Validate(); err != nil {
		return Report{}, fmt.Errorf("energy: %w", err)
	}
	devices := spec.System.NumDevices()
	perDeviceFLOPs := res.ModelFLOPs / float64(devices)
	// Recompute FLOPs burn energy too even though they are not "useful".
	if res.RecomputeTime > 0 && res.GEMMTime > 0 {
		perDeviceFLOPs *= 1 + res.RecomputeTime/(res.GEMMTime+res.EWTime)
	}
	return analyze(spec.System.Device, spec.Precision, perDeviceFLOPs,
		res.DRAMBytes, res.WireBytes, res.Total, devices)
}

// Inference returns the energy report of one inference request predicted
// by internal/infer. A spec infer.Predict would reject is an error.
func Inference(spec infer.Spec, res infer.Result) (Report, error) {
	if err := spec.Validate(); err != nil {
		return Report{}, fmt.Errorf("energy: %w", err)
	}
	// Decode FLOPs are tiny; compute energy is dominated by prefill. The
	// performance model already tallied exact DRAM/wire traffic; FLOPs
	// are approximated as 2·params·tokens (dense decoder forward).
	tokens := float64(spec.Batch * (spec.PromptTokens + spec.GenTokens))
	flops := 2 * spec.Model.Params() * tokens / float64(spec.TP)
	return analyze(spec.System.Device, spec.Precision, flops,
		res.DRAMBytes, res.WireBytes, res.Total, spec.TP)
}

// Prices parameterizes the TCO model.
type Prices struct {
	// GPUHourUSD is the amortized accelerator cost per device-hour
	// (capex + hosting), the dominant TCO term.
	GPUHourUSD float64
	// USDPerKWh prices datacenter energy.
	USDPerKWh float64
	// PUE is the datacenter power usage effectiveness multiplier.
	PUE float64
}

// DefaultPrices reflects public 2024-class cloud pricing.
func DefaultPrices() Prices {
	return Prices{GPUHourUSD: 2.0, USDPerKWh: 0.10, PUE: 1.2}
}

// Cost is a TCO summary.
type Cost struct {
	// ComputeUSD is the amortized accelerator cost.
	ComputeUSD float64
	// EnergyUSD is the electricity cost (at PUE).
	EnergyUSD float64
}

// Total sums the cost.
func (c Cost) Total() float64 { return c.ComputeUSD + c.EnergyUSD }

// runCost prices a workload of the given duration on n devices with the
// given system energy.
func runCost(seconds float64, devices int, systemJoules float64, p Prices) Cost {
	hours := seconds / 3600 * float64(devices)
	kwh := systemJoules / 3.6e6 * p.PUE
	return Cost{
		ComputeUSD: hours * p.GPUHourUSD,
		EnergyUSD:  kwh * p.USDPerKWh,
	}
}

// TrainingRun summarizes the full-run economics of training to a token
// budget — the "training a GPT-3 costs around $10M" arithmetic of the
// paper's introduction, regenerated from the model.
type TrainingRun struct {
	Iterations int
	Days       float64
	EnergyMWh  float64
	Cost       Cost
	// USDPerPFLOP prices useful compute (performance per TCO).
	USDPerPFLOP float64
}

// PriceTrainingRun extrapolates one iteration's prediction to a full
// training run over the given token budget.
func PriceTrainingRun(spec train.Spec, res train.Result, tokens float64, p Prices) (TrainingRun, error) {
	if tokens <= 0 {
		return TrainingRun{}, fmt.Errorf("energy: non-positive token budget %g", tokens)
	}
	rep, err := Training(spec, res)
	if err != nil {
		return TrainingRun{}, err
	}
	tokensPerIter := float64(spec.GlobalBatch) * float64(spec.Seq)
	iters := int(tokens/tokensPerIter + 0.5)
	if iters < 1 {
		iters = 1
	}
	seconds := float64(iters) * res.Total
	systemJ := rep.SystemJ * float64(iters)
	cost := runCost(seconds, spec.System.NumDevices(), systemJ, p)
	run := TrainingRun{
		Iterations: iters,
		Days:       seconds / 86400,
		EnergyMWh:  systemJ / 3.6e9,
		Cost:       cost,
	}
	if usefulPFLOP := res.ModelFLOPs * float64(iters) / 1e15; usefulPFLOP > 0 {
		run.USDPerPFLOP = cost.Total() / usefulPFLOP
	}
	return run, nil
}
