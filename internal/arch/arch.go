// Package arch is the architecture abstraction layer of the Optimus model
// (paper §3.1): a high-level description of a device, node, and system in
// terms of the coarse performance drivers — compute throughput per
// precision, memory-hierarchy capacities and bandwidths, and network links.
//
// The layer can be populated two ways, exactly as in the paper: directly
// from vendor specifications (the presets in presets.go), or derived from
// the µarch engine (internal/uarch) for design-space exploration. Both
// produce the same Device type consumed by the roofline and communication
// models, so the performance prediction engine never sees technology
// details.
package arch

import (
	"fmt"

	"optimus/internal/tech"
)

// MemLevel is one level of the on-device memory hierarchy, ordered from the
// level closest to the compute units (shared memory / L1) outward to DRAM.
type MemLevel struct {
	// Name identifies the level ("L1", "L2", "HBM").
	Name string
	// Capacity is the aggregate usable capacity in bytes.
	Capacity float64
	// BW is the aggregate peak bandwidth in B/s.
	BW float64
	// Util is the default achievable fraction of peak bandwidth for
	// streaming kernels at this level (the paper's bandwidth utilization
	// factor, §4.1).
	Util float64
}

// EffBW returns the achievable bandwidth Util×BW.
func (m MemLevel) EffBW() float64 { return m.BW * m.Util }

// Device describes one accelerator at the abstraction-layer granularity.
type Device struct {
	Name string

	// Compute is peak dense tensor throughput per precision, FLOP/s.
	// Missing precisions are unsupported by the device.
	Compute map[tech.Precision]float64

	// VectorCompute is the non-tensor (CUDA-core-class) throughput used by
	// normalization and element-wise kernels, FLOP/s at FP32.
	VectorCompute float64

	// Mem is the memory hierarchy ordered innermost (L1) to outermost
	// (DRAM). The last level is always the off-chip DRAM.
	Mem []MemLevel

	// DRAM tags the off-chip memory generation for reporting.
	DRAM tech.DRAMTech

	// GEMMEff is the achievable fraction of peak tensor throughput for
	// large, square ("fat") GEMMs — the compute analogue of the bandwidth
	// utilization factor. Shape-dependent derating on top of this is
	// applied by the roofline model.
	GEMMEff float64

	// KernelLaunch is the fixed software overhead per kernel launch in
	// seconds; it dominates tiny inference-phase kernels (paper §4.1:
	// "for smaller sizes, the software overhead has a non-negligible
	// impact").
	KernelLaunch float64
}

// DRAMLevel returns the outermost (off-chip) memory level.
func (d Device) DRAMLevel() MemLevel {
	if len(d.Mem) == 0 {
		return MemLevel{}
	}
	return d.Mem[len(d.Mem)-1]
}

// DRAMCapacity returns the device memory capacity in bytes.
func (d Device) DRAMCapacity() float64 { return d.DRAMLevel().Capacity }

// PeakCompute returns the dense peak throughput at precision p, or an error
// if the device lacks hardware support for that format.
func (d Device) PeakCompute(p tech.Precision) (float64, error) {
	if f, ok := d.Compute[p]; ok && f > 0 {
		return f, nil
	}
	return 0, fmt.Errorf("arch: device %s does not support %v", d.Name, p)
}

// BestCompute returns the highest-throughput precision no finer than p that
// the device supports, falling back toward FP32. Training with a FP8
// transformer engine on an A100, for example, resolves to BF16.
func (d Device) BestCompute(p tech.Precision) (tech.Precision, float64) {
	// Preference order from the requested precision down to FP32, in a
	// fixed-size array so the hot costing path never allocates.
	var order [5]tech.Precision
	n := 0
	push := func(q tech.Precision) { order[n] = q; n++ }
	push(p)
	switch p {
	case tech.FP4:
		push(tech.FP8)
		push(tech.FP16)
		push(tech.BF16)
		push(tech.FP32)
	case tech.FP8:
		push(tech.FP16)
		push(tech.BF16)
		push(tech.FP32)
	case tech.FP16:
		push(tech.BF16)
		push(tech.FP32)
	case tech.BF16:
		push(tech.FP16)
		push(tech.FP32)
	default:
		push(tech.FP32)
	}
	for _, q := range order[:n] {
		if f, ok := d.Compute[q]; ok && f > 0 {
			return q, f
		}
	}
	return tech.FP32, 0
}

// Validate checks structural invariants: a non-empty hierarchy with
// positive capacities and bandwidths, plus at least one supported
// precision. No ordering constraints are imposed between levels: a
// futuristic DRAM stack can outpace an older last-level cache (the
// L2-bound regime of §6.2), and a V100's aggregate L1 exceeds its L2
// capacity. The roofline model handles any hierarchy shape.
func (d Device) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("arch: device has no name")
	}
	if len(d.Mem) == 0 {
		return fmt.Errorf("arch: device %s has no memory hierarchy", d.Name)
	}
	for _, m := range d.Mem {
		if m.Capacity <= 0 || m.BW <= 0 {
			return fmt.Errorf("arch: device %s level %s has non-positive capacity or bandwidth", d.Name, m.Name)
		}
		if m.Util <= 0 || m.Util > 1 {
			return fmt.Errorf("arch: device %s level %s utilization %g outside (0,1]", d.Name, m.Name, m.Util)
		}
	}
	if len(d.Compute) == 0 {
		return fmt.Errorf("arch: device %s supports no precision", d.Name)
	}
	if d.GEMMEff <= 0 || d.GEMMEff > 1 {
		return fmt.Errorf("arch: device %s GEMM efficiency %g outside (0,1]", d.Name, d.GEMMEff)
	}
	return nil
}

// Link is a point-to-point or switched interconnect as seen by one device.
type Link struct {
	// Tech tags the interconnect generation for reporting.
	Tech tech.NetworkTech
	// BW is per-device unidirectional bandwidth in B/s.
	BW float64
	// Latency is the per-hop latency in seconds (the paper's l).
	Latency float64
	// Util is the achievable fraction of BW for large transfers; the
	// message-size-dependent derating is applied by internal/comm.
	Util float64
}

// EffBW returns the achievable large-message bandwidth Util×BW.
func (l Link) EffBW() float64 { return l.BW * l.Util }

// linkFromTech builds a Link from a technology-table entry, dividing
// node-level (InfiniBand) bandwidth across devicesPerNode devices.
func linkFromTech(t tech.NetworkTech, devicesPerNode int, util float64) Link {
	spec := t.Spec()
	bw := spec.BW
	if spec.PerNode && devicesPerNode > 0 {
		bw /= float64(devicesPerNode)
	}
	return Link{Tech: t, BW: bw, Latency: spec.Latency, Util: util}
}

// System is the full machine: identical devices grouped into nodes with an
// intra-node fabric, and nodes joined by an inter-node fabric.
type System struct {
	Device         Device
	DevicesPerNode int
	NumNodes       int
	// Intra is the per-device intra-node link (NVLink class).
	Intra Link
	// Inter is the per-device share of the inter-node link (IB class).
	Inter Link
}

// NumDevices returns the total accelerator count.
func (s *System) NumDevices() int { return s.DevicesPerNode * s.NumNodes }

// Validate checks the system invariants.
func (s *System) Validate() error {
	if err := s.Device.Validate(); err != nil {
		return err
	}
	if s.DevicesPerNode <= 0 || s.NumNodes <= 0 {
		return fmt.Errorf("arch: system %s has non-positive shape %dx%d", s.Device.Name, s.NumNodes, s.DevicesPerNode)
	}
	if s.DevicesPerNode > 1 && s.Intra.BW <= 0 {
		return fmt.Errorf("arch: system %s has multiple devices per node but no intra-node link", s.Device.Name)
	}
	if s.NumNodes > 1 && s.Inter.BW <= 0 {
		return fmt.Errorf("arch: system %s has multiple nodes but no inter-node link", s.Device.Name)
	}
	return nil
}

// LinkBetween returns the link connecting a group of n cooperating devices:
// the intra-node fabric if they fit inside one node, otherwise the
// inter-node fabric (TP/SP stay inside a node in all the paper's
// configurations; DP and PP cross nodes).
func (s *System) LinkBetween(n int) Link {
	if n <= 1 {
		return Link{}
	}
	if n <= s.DevicesPerNode {
		return s.Intra
	}
	return s.Inter
}

// String renders a one-line summary of the system shape.
func (s *System) String() string {
	return fmt.Sprintf("%s x%d (%d nodes x %d GPUs, intra %s, inter %s)",
		s.Device.Name, s.NumDevices(), s.NumNodes, s.DevicesPerNode,
		s.Intra.Tech, s.Inter.Tech)
}
