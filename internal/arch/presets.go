package arch

import (
	"fmt"
	"sort"

	"optimus/internal/tech"
)

// Preset device builders. Peak numbers are the public vendor datasheet
// values (dense tensor throughput, not the 2:4-sparsity marketing figures);
// the efficiency knobs (GEMMEff, per-level Util, KernelLaunch, link Latency)
// are the calibration constants of the model, fitted once against the
// published measurements the paper validates with (§4) and then held fixed
// across every case study.

// A100 returns an NVIDIA A100-SXM4-80GB device.
func A100() Device {
	return Device{
		Name: "A100-80GB",
		Compute: map[tech.Precision]float64{
			tech.FP32: 19.5e12,
			tech.TF32: 156e12,
			tech.BF16: 312e12,
			tech.FP16: 312e12,
			tech.INT8: 624e12,
		},
		VectorCompute: 19.5e12,
		Mem: []MemLevel{
			{Name: "L1", Capacity: 20.7e6, BW: 19.4e12, Util: 0.90},
			// 4 TB/s is the measured A100 L2 read bandwidth; its 3.4 TB/s
			// effective rate is where §6.2's DRAM scaling saturates
			// (HBM3e-class stacks already exceed it).
			{Name: "L2", Capacity: 40e6, BW: 4.0e12, Util: 0.85},
			{Name: "HBM", Capacity: 80e9, BW: 1.935e12, Util: 0.80},
		},
		DRAM:         tech.HBM2E,
		GEMMEff:      0.75,
		KernelLaunch: 2.8e-6,
	}
}

// a100_40GB returns the 40 GB HBM2 variant.
func a100_40GB() Device {
	d := A100()
	d.Name = "A100-40GB"
	d.Mem[2] = MemLevel{Name: "HBM", Capacity: 40e9, BW: 1.555e12, Util: 0.80}
	d.DRAM = tech.HBM2
	return d
}

// H100 returns an NVIDIA H100-SXM5-80GB device.
func H100() Device {
	return Device{
		Name: "H100-SXM",
		Compute: map[tech.Precision]float64{
			tech.FP32: 66.9e12,
			tech.TF32: 494.7e12,
			tech.BF16: 989.4e12,
			tech.FP16: 989.4e12,
			tech.FP8:  1978.9e12,
			tech.INT8: 1978.9e12,
		},
		VectorCompute: 66.9e12,
		Mem: []MemLevel{
			{Name: "L1", Capacity: 33.8e6, BW: 33e12, Util: 0.90},
			{Name: "L2", Capacity: 50e6, BW: 6.5e12, Util: 0.85},
			{Name: "HBM", Capacity: 80e9, BW: 3.35e12, Util: 0.80},
		},
		DRAM:         tech.HBM3Fast,
		GEMMEff:      0.72,
		KernelLaunch: 2.2e-6,
	}
}

// H200 returns an NVIDIA H200 device: Hopper compute with HBM3e.
func H200() Device {
	d := H100()
	d.Name = "H200"
	d.Mem[2] = MemLevel{Name: "HBM", Capacity: 141e9, BW: 4.8e12, Util: 0.80}
	d.DRAM = tech.HBM3E
	return d
}

// B200 returns an NVIDIA B200 device with FP4 support.
func B200() Device {
	return Device{
		Name: "B200",
		Compute: map[tech.Precision]float64{
			tech.FP32: 80e12,
			tech.TF32: 1.1e15,
			tech.BF16: 2.25e15,
			tech.FP16: 2.25e15,
			tech.FP8:  4.5e15,
			tech.FP4:  9.0e15,
			tech.INT8: 4.5e15,
		},
		VectorCompute: 80e12,
		Mem: []MemLevel{
			{Name: "L1", Capacity: 48e6, BW: 60e12, Util: 0.90},
			{Name: "L2", Capacity: 126e6, BW: 14e12, Util: 0.85},
			{Name: "HBM", Capacity: 192e9, BW: 8.0e12, Util: 0.80},
		},
		DRAM:         tech.HBM3E,
		GEMMEff:      0.70,
		KernelLaunch: 2.0e-6,
	}
}

// b100 returns an NVIDIA B100 device (B200 at a lower power envelope).
func b100() Device {
	d := B200()
	d.Name = "B100"
	for p, f := range d.Compute {
		d.Compute[p] = f * 1.75 / 2.25
	}
	d.VectorCompute *= 1.75 / 2.25
	return d
}

// v100 returns an NVIDIA V100-SXM2-32GB device (DeepFlow's validation
// platform, kept for lineage and regression tests).
func v100() Device {
	return Device{
		Name: "V100",
		Compute: map[tech.Precision]float64{
			tech.FP32: 15.7e12,
			tech.FP16: 125e12,
		},
		VectorCompute: 15.7e12,
		Mem: []MemLevel{
			{Name: "L1", Capacity: 10e6, BW: 14e12, Util: 0.90},
			{Name: "L2", Capacity: 6e6, BW: 2.5e12, Util: 0.85},
			{Name: "HBM", Capacity: 32e9, BW: 0.9e12, Util: 0.80},
		},
		DRAM:         tech.HBM2,
		GEMMEff:      0.66,
		KernelLaunch: 4.0e-6,
	}
}

// p4 returns an NVIDIA P4 inference card (DeepFlow's second validation
// platform).
func p4() Device {
	return Device{
		Name: "P4",
		Compute: map[tech.Precision]float64{
			tech.FP32: 5.5e12,
			tech.FP16: 5.5e12,
			tech.INT8: 22e12,
		},
		VectorCompute: 5.5e12,
		Mem: []MemLevel{
			{Name: "L1", Capacity: 2.5e6, BW: 4e12, Util: 0.90},
			{Name: "L2", Capacity: 2e6, BW: 1e12, Util: 0.85},
			{Name: "DRAM", Capacity: 8e9, BW: 192e9, Util: 0.80},
		},
		DRAM:         tech.GDDR6,
		GEMMEff:      0.60,
		KernelLaunch: 5.0e-6,
	}
}

// tpuV4 returns a Google TPU v4 device (the paper notes the framework was
// extended to accommodate TPUs; modeled from public figures).
func tpuV4() Device {
	return Device{
		Name: "TPUv4",
		Compute: map[tech.Precision]float64{
			tech.BF16: 275e12,
			tech.FP16: 275e12,
			tech.INT8: 275e12,
			tech.FP32: 34e12,
		},
		VectorCompute: 34e12,
		Mem: []MemLevel{
			{Name: "VMEM", Capacity: 128e6, BW: 11e12, Util: 0.90},
			{Name: "CMEM", Capacity: 128e6, BW: 5e12, Util: 0.85},
			{Name: "HBM", Capacity: 32e9, BW: 1.2e12, Util: 0.80},
		},
		DRAM:         tech.HBM2,
		GEMMEff:      0.68,
		KernelLaunch: 3.0e-6,
	}
}

// Effective collective latencies per fabric generation, calibrated so that
// the inference validation (Table 2) and the 8-GPU comm/memory ratio of
// ~1.6x (§6.2) are reproduced. These fold NCCL software launch cost into
// the per-hop latency l of Eqs. (3)-(4), which is why they exceed the raw
// wire latencies in internal/tech.
const (
	nvlink3CollLatency = 7.5e-6
	nvlink4CollLatency = 6.7e-6
	nvlink5CollLatency = 6.0e-6
	ibCollLatency      = 9.0e-6
)

// collLatency returns the calibrated collective latency for a fabric.
func collLatency(t tech.NetworkTech) float64 {
	switch t {
	case tech.NVLink3:
		return nvlink3CollLatency
	case tech.NVLink4, tech.NVSwitchH:
		return nvlink4CollLatency
	case tech.NVLink5, tech.NVSwitchB:
		return nvlink5CollLatency
	default:
		return ibCollLatency
	}
}

// IntraLink builds the per-GPU intra-node link for a fabric generation with
// the calibrated collective latency.
func IntraLink(t tech.NetworkTech) Link {
	l := linkFromTech(t, 0, 0.80)
	l.Latency = collLatency(t)
	return l
}

// InterLink builds the per-GPU share of an inter-node fabric for nodes of
// devicesPerNode GPUs. NVLink-Switch systems expose per-GPU bandwidth
// directly; InfiniBand bandwidth is a node aggregate split across GPUs.
func InterLink(t tech.NetworkTech, devicesPerNode int) Link {
	l := linkFromTech(t, devicesPerNode, 0.85)
	l.Latency = collLatency(t)
	return l
}

// SystemOf assembles a System of n devices in nodes of devicesPerNode with
// the given fabrics. n must be divisible by devicesPerNode unless it is
// smaller than one node, in which case a single partial node is built.
func SystemOf(d Device, n, devicesPerNode int, intra, inter tech.NetworkTech) (*System, error) {
	if n <= 0 || devicesPerNode <= 0 {
		return nil, fmt.Errorf("arch: non-positive system shape n=%d per-node=%d", n, devicesPerNode)
	}
	if n < devicesPerNode {
		devicesPerNode = n
	}
	if n%devicesPerNode != 0 {
		return nil, fmt.Errorf("arch: %d devices not divisible into nodes of %d", n, devicesPerNode)
	}
	s := &System{
		Device:         d,
		DevicesPerNode: devicesPerNode,
		NumNodes:       n / devicesPerNode,
		Intra:          IntraLink(intra),
		Inter:          InterLink(inter, devicesPerNode),
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// DGXA100 builds an A100 cluster in DGX nodes of 8 with NVLink3 inside and
// HDR InfiniBand between nodes (the paper's Table 1 validation platform).
func DGXA100(n int) (*System, error) {
	return SystemOf(A100(), n, 8, tech.NVLink3, tech.IBHDR)
}

// DeviceByName returns a preset device by its conventional name.
func DeviceByName(name string) (Device, error) {
	builders := map[string]func() Device{
		"a100": A100, "a100-80gb": A100, "a100-40gb": a100_40GB,
		"h100": H100, "h100-sxm": H100, "h200": H200,
		"b100": b100, "b200": B200,
		"v100": v100, "p4": p4, "tpuv4": tpuV4,
	}
	if b, ok := builders[lower(name)]; ok {
		return b(), nil
	}
	return Device{}, fmt.Errorf("arch: unknown device preset %q (known: %s)", name, knownPresets())
}

func knownPresets() string {
	names := []string{"a100", "a100-40gb", "h100", "h200", "b100", "b200", "v100", "p4", "tpuv4"}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
