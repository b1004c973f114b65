package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPrecisionBytes(t *testing.T) {
	cases := []struct {
		p    Precision
		want float64
	}{
		{FP32, 4}, {TF32, 4}, {BF16, 2}, {FP16, 2}, {FP8, 1}, {INT8, 1}, {FP4, 0.5},
	}
	for _, c := range cases {
		if got := c.p.Bytes(); got != c.want {
			t.Errorf("%v.Bytes() = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPrecisionString(t *testing.T) {
	if FP8.String() != "fp8" {
		t.Errorf("FP8.String() = %q", FP8.String())
	}
	if Precision(99).String() == "" {
		t.Error("unknown precision should still render")
	}
}

func TestParsePrecision(t *testing.T) {
	p, err := ParsePrecision("bf16")
	if err != nil || p != BF16 {
		t.Errorf("ParsePrecision(bf16) = %v, %v", p, err)
	}
	if _, err := ParsePrecision("fp128"); err == nil {
		t.Error("expected error for unknown precision")
	}
}

func TestNodeOrdering(t *testing.T) {
	if len(Nodes) != 7 {
		t.Fatalf("expected 7 nodes, got %d", len(Nodes))
	}
	for i := 1; i < len(Nodes); i++ {
		if Nodes[i].Steps() != Nodes[i-1].Steps()+1 {
			t.Errorf("nodes not in scaling order at %v", Nodes[i])
		}
	}
}

func TestNodeScaling(t *testing.T) {
	if got := N12.AreaScale(); got != 1 {
		t.Errorf("N12 area scale = %g, want 1", got)
	}
	// N7 is two steps from N12: 1.8^2 = 3.24.
	if got := N7.AreaScale(); math.Abs(got-3.24) > 1e-9 {
		t.Errorf("N7 area scale = %g, want 3.24", got)
	}
	if got := N7.PowerScale(); math.Abs(got-1.69) > 1e-9 {
		t.Errorf("N7 power scale = %g, want 1.69", got)
	}
	// Scaling must be monotone: later nodes always denser, more efficient.
	for i := 1; i < len(Nodes); i++ {
		if Nodes[i].AreaScale() <= Nodes[i-1].AreaScale() {
			t.Errorf("area scale not increasing at %v", Nodes[i])
		}
		if Nodes[i].PowerScale() <= Nodes[i-1].PowerScale() {
			t.Errorf("power scale not increasing at %v", Nodes[i])
		}
	}
}

func TestParseNode(t *testing.T) {
	for _, s := range []string{"N7", "7", "n7"} {
		n, err := ParseNode(s)
		if err != nil || n != N7 {
			t.Errorf("ParseNode(%q) = %v, %v", s, n, err)
		}
	}
	if _, err := ParseNode("N99"); err == nil {
		t.Error("expected error for unknown node")
	}
}

func TestLogicAtScalesCoreArea(t *testing.T) {
	base := LogicAt(N12)
	n7 := LogicAt(N7)
	wantArea := base.CoreAreaMM2 / 3.24
	if math.Abs(n7.CoreAreaMM2-wantArea) > 1e-9 {
		t.Errorf("N7 core area = %g, want %g", n7.CoreAreaMM2, wantArea)
	}
	wantPower := base.CorePowerW / 1.69
	if math.Abs(n7.CorePowerW-wantPower) > 1e-9 {
		t.Errorf("N7 core power = %g, want %g", n7.CorePowerW, wantPower)
	}
	if n7.ClockGHz != base.ClockGHz {
		t.Error("clock should be iso-performance constant across nodes")
	}
	if n7.SRAMBytesPerMM2 <= base.SRAMBytesPerMM2 {
		t.Error("SRAM density should improve with scaling")
	}
}

func TestDRAMSpecsOrdered(t *testing.T) {
	// Bandwidth must be non-decreasing in the declared generation order,
	// except HBM4 which the paper projects at 3.3 TB/s (below HBM3e).
	specs := []DRAMTech{GDDR6, HBM2, HBM2E, HBM3, HBM3Fast, HBM3E}
	for i := 1; i < len(specs); i++ {
		if specs[i].Spec().PeakBW <= specs[i-1].Spec().PeakBW {
			t.Errorf("%v BW not above %v", specs[i], specs[i-1])
		}
	}
	if HBMX.Spec().PeakBW != 6.8e12 {
		t.Errorf("HBMX BW = %g, want 6.8e12", HBMX.Spec().PeakBW)
	}
}

func TestDRAMPaperPoints(t *testing.T) {
	// The §5.3 sweep quotes HBM2 1 TB/s, HBM2e 1.9, HBM3 2.6, HBM4 3.3.
	cases := []struct {
		d    DRAMTech
		want float64
	}{
		{HBM2, 1.0e12}, {HBM2E, 1.9e12}, {HBM3, 2.6e12}, {HBM4, 3.3e12},
		{GDDR6, 600e9}, {HBM3Fast, 3.35e12}, {HBM3E, 4.8e12},
	}
	for _, c := range cases {
		if got := c.d.Spec().PeakBW; got != c.want {
			t.Errorf("%v peak BW = %g, want %g", c.d, got, c.want)
		}
	}
}

func TestParseDRAM(t *testing.T) {
	d, err := ParseDRAM("HBM2e")
	if err != nil || d != HBM2E {
		t.Errorf("ParseDRAM(HBM2e) = %v, %v", d, err)
	}
	if _, err := ParseDRAM("ddr3"); err == nil {
		t.Error("expected error for unknown DRAM tech")
	}
}

func TestNetworkPaperPoints(t *testing.T) {
	cases := []struct {
		n    NetworkTech
		want float64
	}{
		{IBHDR, 200e9}, {IBNDR, 400e9},
		{IBNDRx8, 100e9}, {IBXDRx8, 200e9}, {IBGDRx8, 400e9},
		{NVLink3, 300e9}, {NVLink4, 450e9}, {NVLink5, 900e9},
	}
	for _, c := range cases {
		if got := c.n.Spec().BW; got != c.want {
			t.Errorf("%v BW = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestNetworkPerNodeFlag(t *testing.T) {
	if !IBHDR.Spec().PerNode {
		t.Error("InfiniBand bandwidth is quoted per node")
	}
	if NVLink4.Spec().PerNode {
		t.Error("NVLink bandwidth is quoted per GPU")
	}
}

func TestParseNetwork(t *testing.T) {
	n, err := ParseNetwork("NV4")
	if err != nil || n != NVLink4 {
		t.Errorf("ParseNetwork(NV4) = %v, %v", n, err)
	}
	if _, err := ParseNetwork("token-ring"); err == nil {
		t.Error("expected error for unknown network tech")
	}
}

func TestStringRoundTrips(t *testing.T) {
	for _, d := range []DRAMTech{GDDR6, HBM2, HBM2E, HBM3, HBM3Fast, HBM3E, HBM4, HBMX} {
		got, err := ParseDRAM(d.String())
		if err != nil || got != d {
			t.Errorf("DRAM round trip failed for %v: %v, %v", d, got, err)
		}
	}
}

// Property: cumulative area scale equals the product of per-step factors.
func TestAreaScaleCompositionProperty(t *testing.T) {
	f := func(stepSeed uint8) bool {
		n := Node(int(stepSeed) % len(Nodes))
		want := 1.0
		for i := 0; i < n.Steps(); i++ {
			want *= AreaScalePerStep
		}
		return math.Abs(n.AreaScale()-want) < 1e-9*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
