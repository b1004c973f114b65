package arch

import (
	"testing"
	"testing/quick"

	"optimus/internal/tech"
)

func TestPresetsValidate(t *testing.T) {
	for _, d := range []Device{A100(), a100_40GB(), H100(), H200(), b100(), B200(), v100(), p4(), tpuV4()} {
		if err := d.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", d.Name, err)
		}
	}
}

func TestPaperHeadlineNumbers(t *testing.T) {
	a := A100()
	if f, _ := a.PeakCompute(tech.FP16); f != 312e12 {
		t.Errorf("A100 FP16 = %g, want 312e12", f)
	}
	if bw := a.DRAMLevel().BW; bw != 1.935e12 {
		t.Errorf("A100 HBM BW = %g, want 1.935e12 (paper: 1.9 TB/s class)", bw)
	}
	h := H100()
	if f, _ := h.PeakCompute(tech.FP16); f != 989.4e12 {
		t.Errorf("H100 FP16 = %g, want 989.4e12 (paper §6.2)", f)
	}
	if bw := h.DRAMLevel().BW; bw != 3.35e12 {
		t.Errorf("H100 HBM BW = %g, want 3.35e12 (paper §4.3)", bw)
	}
	if cap := H200().DRAMCapacity(); cap != 141e9 {
		t.Errorf("H200 capacity = %g, want 141e9", cap)
	}
	b := B200()
	if f, _ := b.PeakCompute(tech.FP4); f != 9.0e15 {
		t.Errorf("B200 FP4 = %g, want 9e15", f)
	}
}

func TestPeakComputeUnsupported(t *testing.T) {
	a := A100()
	if _, err := a.PeakCompute(tech.FP8); err == nil {
		t.Error("A100 should not support FP8")
	}
	if _, err := a.PeakCompute(tech.FP4); err == nil {
		t.Error("A100 should not support FP4")
	}
}

func TestBestComputeFallback(t *testing.T) {
	a := A100()
	// Requesting FP8 on an A100 must fall back to FP16/BF16 at 312 TFLOPS,
	// mirroring mixed-precision training without a transformer engine.
	p, f := a.BestCompute(tech.FP8)
	if f != 312e12 || (p != tech.FP16 && p != tech.BF16) {
		t.Errorf("A100 BestCompute(FP8) = %v %g, want fp16-class 312e12", p, f)
	}
	b := B200()
	p, f = b.BestCompute(tech.FP4)
	if p != tech.FP4 || f != 9.0e15 {
		t.Errorf("B200 BestCompute(FP4) = %v %g", p, f)
	}
	h := H100()
	p, f = h.BestCompute(tech.FP4)
	if p != tech.FP8 || f != 1978.9e12 {
		t.Errorf("H100 BestCompute(FP4) = %v %g, want fp8", p, f)
	}
}

func TestHierarchyOrdering(t *testing.T) {
	for _, d := range []Device{A100(), H100(), B200()} {
		for i := 1; i < len(d.Mem); i++ {
			if d.Mem[i].BW > d.Mem[i-1].BW {
				t.Errorf("%s: level %s faster than inner level", d.Name, d.Mem[i].Name)
			}
			if d.Mem[i].Capacity < d.Mem[i-1].Capacity {
				t.Errorf("%s: level %s smaller than inner level", d.Name, d.Mem[i].Name)
			}
		}
	}
}

func TestValidateRejectsBadDevices(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Device)
	}{
		{"no name", func(d *Device) { d.Name = "" }},
		{"no memory", func(d *Device) { d.Mem = nil }},
		{"zero capacity", func(d *Device) { d.Mem[0].Capacity = 0 }},
		{"bad util", func(d *Device) { d.Mem[0].Util = 1.5 }},
		{"no compute", func(d *Device) { d.Compute = nil }},
		{"bad gemm eff", func(d *Device) { d.GEMMEff = 0 }},
	}
	for _, c := range cases {
		d := A100()
		c.mut(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("Validate should reject device with %s", c.name)
		}
	}
}

func TestLinkFromTechPerNodeSplit(t *testing.T) {
	// HDR IB is 200 GB/s per node; a DGX has 8 GPUs → 25 GB/s per GPU.
	l := linkFromTech(tech.IBHDR, 8, 0.85)
	if l.BW != 25e9 {
		t.Errorf("per-GPU HDR share = %g, want 25e9", l.BW)
	}
	// NVLink is already per-GPU.
	l = linkFromTech(tech.NVLink4, 8, 0.8)
	if l.BW != 450e9 {
		t.Errorf("NVLink4 per-GPU = %g, want 450e9", l.BW)
	}
}

func TestSystemOf(t *testing.T) {
	s, err := DGXA100(64)
	if err != nil {
		t.Fatalf("DGXA100(64): %v", err)
	}
	if s.NumDevices() != 64 || s.NumNodes != 8 {
		t.Errorf("system shape = %d devices, %d nodes", s.NumDevices(), s.NumNodes)
	}
	if s.Intra.Tech != tech.NVLink3 || s.Inter.Tech != tech.IBHDR {
		t.Errorf("fabrics = %v, %v", s.Intra.Tech, s.Inter.Tech)
	}
	// A 4-GPU request is a single partial node.
	s, err = DGXA100(4)
	if err != nil {
		t.Fatalf("DGXA100(4): %v", err)
	}
	if s.NumNodes != 1 || s.DevicesPerNode != 4 {
		t.Errorf("partial node shape = %dx%d", s.NumNodes, s.DevicesPerNode)
	}
}

func TestSystemOfRejectsBadShapes(t *testing.T) {
	if _, err := SystemOf(A100(), 0, 8, tech.NVLink3, tech.IBHDR); err == nil {
		t.Error("zero devices should be rejected")
	}
	if _, err := SystemOf(A100(), 12, 8, tech.NVLink3, tech.IBHDR); err == nil {
		t.Error("non-divisible device count should be rejected")
	}
}

func TestLinkBetween(t *testing.T) {
	s, _ := DGXA100(64)
	if l := s.LinkBetween(8); l.Tech != tech.NVLink3 {
		t.Errorf("8-way group should use intra-node link, got %v", l.Tech)
	}
	if l := s.LinkBetween(16); l.Tech != tech.IBHDR {
		t.Errorf("16-way group should use inter-node link, got %v", l.Tech)
	}
	if l := s.LinkBetween(1); l.BW != 0 {
		t.Error("single-device group needs no link")
	}
}

func TestDeviceByName(t *testing.T) {
	d, err := DeviceByName("H100")
	if err != nil || d.Name != "H100-SXM" {
		t.Errorf("DeviceByName(H100) = %v, %v", d.Name, err)
	}
	if _, err := DeviceByName("mi300"); err == nil {
		t.Error("unknown preset should error")
	}
}

func TestCollectiveLatencyOrdering(t *testing.T) {
	// Newer fabrics must not be slower; the NV3→NV4 step sizes the ~12%
	// communication gain of §6.2.
	if !(nvlink4CollLatency < nvlink3CollLatency) {
		t.Error("NVLink4 collective latency should improve on NVLink3")
	}
	if !(nvlink5CollLatency < nvlink4CollLatency) {
		t.Error("NVLink5 collective latency should improve on NVLink4")
	}
}

func TestSystemString(t *testing.T) {
	s, _ := DGXA100(16)
	if s.String() == "" {
		t.Error("String should render")
	}
}

// Property: LinkBetween never returns a link with more bandwidth than the
// intra-node fabric (inter-node is always the bottleneck fabric).
func TestLinkBetweenMonotoneProperty(t *testing.T) {
	s, _ := DGXA100(64)
	f := func(nSeed uint8) bool {
		n := int(nSeed)%64 + 1
		l := s.LinkBetween(n)
		return l.BW <= s.Intra.BW
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
