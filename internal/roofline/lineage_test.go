package roofline

import (
	"testing"

	"optimus/internal/arch"
	"optimus/internal/tech"
)

// DeepFlow — the framework the paper builds on — was validated on P4 and
// V100 GPUs. These regression checks keep those older presets honest so
// the lineage claims in DESIGN.md stay true.

// preset looks up an arch device preset by name.
func preset(t *testing.T, name string) arch.Device {
	t.Helper()
	d, err := arch.DeviceByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestV100FatGEMMThroughput(t *testing.T) {
	// V100 peaks at 125 TFLOPS FP16; well-shaped training GEMMs achieve
	// ~80 TFLOPS in practice (cuBLAS measurements of the era).
	e := New(preset(t, "v100"))
	g := GEMM{M: 4096, N: 4096, K: 4096, Precision: tech.FP16}
	est := e.EstimateGEMM(g)
	achieved := est.FLOPs / est.Time
	if achieved < 60e12 || achieved > 100e12 {
		t.Errorf("V100 fat GEMM throughput = %.0f TFLOPS, want 60-100", achieved/1e12)
	}
	if est.Bound != BoundCompute {
		t.Errorf("V100 fat GEMM bound = %v, want compute", est.Bound)
	}
}

func TestV100GEMVBandwidth(t *testing.T) {
	// V100's 900 GB/s HBM2 serves decode GEMVs at ~60-70% of peak.
	e := New(preset(t, "v100"))
	g := GEMM{M: 1, N: 8192, K: 8192, Precision: tech.FP16}
	est := e.EstimateGEMM(g)
	achieved := est.DRAMBytes / est.Time
	if achieved < 0.5e12 || achieved > 0.8e12 {
		t.Errorf("V100 GEMV bandwidth = %.0f GB/s, want 500-800", achieved/1e9)
	}
}

func TestP4IsInferenceClass(t *testing.T) {
	// The P4 is an inference card: no fast FP16 path, INT8 at 22 TOPS,
	// and a GDDR-class memory system that bounds even modest GEMMs.
	p4 := preset(t, "p4")
	if f, _ := p4.PeakCompute(tech.INT8); f != 22e12 {
		t.Errorf("P4 INT8 = %g, want 22e12", f)
	}
	e := New(p4)
	g := GEMM{M: 1, N: 4096, K: 4096, Precision: tech.FP16}
	est := e.EstimateGEMM(g)
	if est.Bound != BoundMemory {
		t.Errorf("P4 decode GEMV bound = %v, want memory (192 GB/s GDDR)", est.Bound)
	}
}

func TestGenerationOrdering(t *testing.T) {
	// Each GPU generation must strictly improve both fat-GEMM and GEMV
	// times on identical kernels.
	fat := GEMM{M: 4096, N: 4096, K: 4096, Precision: tech.FP16}
	gemv := GEMM{M: 1, N: 8192, K: 8192, Precision: tech.FP16}
	devices := []arch.Device{preset(t, "v100"), arch.A100(), arch.H100(), arch.B200()}
	for i := 1; i < len(devices); i++ {
		prev := New(devices[i-1])
		cur := New(devices[i])
		if cur.EstimateGEMM(fat).Time >= prev.EstimateGEMM(fat).Time {
			t.Errorf("%s should beat %s on fat GEMMs", devices[i].Name, devices[i-1].Name)
		}
		if cur.EstimateGEMM(gemv).Time >= prev.EstimateGEMM(gemv).Time {
			t.Errorf("%s should beat %s on GEMVs", devices[i].Name, devices[i-1].Name)
		}
	}
}
