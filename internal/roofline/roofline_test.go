package roofline

import (
	"math"
	"testing"
	"testing/quick"

	"optimus/internal/arch"
	"optimus/internal/tech"
)

func a100Engine() *Engine { return New(arch.A100()) }
func h100Engine() *Engine { return New(arch.H100()) }

func TestGEMMFLOPs(t *testing.T) {
	g := GEMM{M: 10, N: 20, K: 30, Precision: tech.FP16}
	if got := g.FLOPs(); got != 12000 {
		t.Errorf("FLOPs = %g, want 12000", got)
	}
	g.Batch = 4
	if got := g.FLOPs(); got != 48000 {
		t.Errorf("batched FLOPs = %g, want 48000", got)
	}
}

func TestCompulsoryBytes(t *testing.T) {
	g := GEMM{M: 2, N: 3, K: 4, Precision: tech.FP16}
	// (2*4 + 4*3 + 2*3) * 2 bytes = 52.
	if got := g.CompulsoryBytes(); got != 52 {
		t.Errorf("CompulsoryBytes = %g, want 52", got)
	}
}

func TestIsGEMV(t *testing.T) {
	if !(GEMM{M: 1, N: 4096, K: 4096}).IsGEMV() {
		t.Error("M=1 should be GEMV")
	}
	if (GEMM{M: 2048, N: 4096, K: 4096}).IsGEMV() {
		t.Error("fat GEMM misclassified as GEMV")
	}
}

func TestFatGEMMComputeBound(t *testing.T) {
	// Training-shape GEMMs are compute-bound on an A100 (paper §1.2).
	e := a100Engine()
	est := e.EstimateGEMM(GEMM{M: 8192, N: 8192, K: 8192, Precision: tech.FP16})
	if est.Bound != BoundCompute {
		t.Errorf("8192^3 GEMM bound = %v (%s), want compute", est.Bound, est.BoundLevel)
	}
	// 2*8192^3 FLOPs at the device's calibrated fat-GEMM efficiency.
	want := 2 * math.Pow(8192, 3) / (312e12 * e.Device().GEMMEff)
	if math.Abs(est.ComputeTime-want)/want > 1e-9 {
		t.Errorf("compute time = %g, want %g", est.ComputeTime, want)
	}
	if est.Time < est.ComputeTime {
		t.Error("total time must include compute time")
	}
}

func TestGEMVMemoryBound(t *testing.T) {
	// Decode-shape GEMV is DRAM-bound (paper §4.1): the weight matrix is
	// streamed once per token.
	e := a100Engine()
	g := GEMM{M: 1, N: 4096, K: 4096, Precision: tech.FP16}
	est := e.EstimateGEMM(g)
	if est.Bound != BoundMemory {
		t.Fatalf("GEMV bound = %v, want memory", est.Bound)
	}
	if est.BoundLevel != "HBM" {
		t.Errorf("GEMV bound level = %s, want HBM", est.BoundLevel)
	}
	// Time ≈ weight bytes / (1.935e12 * 0.80 * 0.88) + launch.
	weights := 4096.0 * 4096 * 2
	wantMem := weights / (1.935e12 * 0.80 * 0.88)
	if est.MemoryTime < wantMem*0.95 || est.MemoryTime > wantMem*1.15 {
		t.Errorf("GEMV memory time = %g, want ≈ %g", est.MemoryTime, wantMem)
	}
}

func TestGEMVUtilFnOverride(t *testing.T) {
	e := a100Engine()
	g := GEMM{M: 1, N: 4096, K: 4096, Precision: tech.FP16}
	base := e.EstimateGEMM(g).Time
	e.GEMVUtilFn = func(GEMM) float64 { return 0.44 } // half the default 0.88
	slower := e.EstimateGEMM(g).Time
	if slower <= base {
		t.Errorf("halving DRAM utilization should slow the GEMV: %g vs %g", slower, base)
	}
}

func TestTinyKernelLaunchBound(t *testing.T) {
	// A single-head decode attention score kernel is launch-bound: its
	// data fits in caches and moves in under a microsecond (Table 4's
	// single-head rows are ~3 µs ≈ launch overhead).
	e := a100Engine()
	est := e.EstimateGEMM(GEMM{M: 1, N: 200, K: 128, Precision: tech.FP16})
	if est.Bound != BoundLaunch {
		t.Errorf("tiny kernel bound = %v, want launch", est.Bound)
	}
	if est.Time < e.Device().KernelLaunch {
		t.Error("time must include launch overhead")
	}
	if est.Time > 2.5*e.Device().KernelLaunch {
		t.Errorf("tiny kernel time %g should be dominated by launch %g", est.Time, e.Device().KernelLaunch)
	}
}

func TestPrefillQKVBoundFlipsA100ToH100(t *testing.T) {
	// Paper Table 4: the merged-head QKV GEMM of Llama2-13B prefill
	// (m=200, k=5120, n=3*5120) is compute-bound on A100 but
	// memory-bound on H100 — compute scaled 3.2x while DRAM scaled 1.76x.
	g := GEMM{M: 200, N: 3 * 5120, K: 5120, Precision: tech.FP16}
	a := a100Engine().EstimateGEMM(g)
	h := h100Engine().EstimateGEMM(g)
	if a.Bound != BoundCompute {
		t.Errorf("A100 QKV bound = %v (%s), want compute", a.Bound, a.BoundLevel)
	}
	if h.Bound != BoundMemory {
		t.Errorf("H100 QKV bound = %v, want memory", h.Bound)
	}
	if h.Time >= a.Time {
		t.Error("H100 must be faster than A100 on the QKV GEMM")
	}
}

func TestHierarchyLevelsReported(t *testing.T) {
	e := a100Engine()
	g := GEMM{M: 4096, N: 4096, K: 4096, Precision: tech.FP16}
	levels := make([]levelTime, len(e.Device().Mem))
	est := e.gemm(g, levels)
	if len(levels) != 3 {
		t.Fatalf("want 3 levels, got %d", len(levels))
	}
	names := []string{"L1", "L2", "HBM"}
	var slowest float64
	for i, l := range levels {
		if l.name != names[i] {
			t.Errorf("level %d = %s, want %s", i, l.name, names[i])
		}
		if l.bytes <= 0 || l.time <= 0 {
			t.Errorf("level %s has non-positive traffic", l.name)
		}
		slowest = math.Max(slowest, l.time)
	}
	// The breakdown comes from the same body as the estimate itself.
	if est != e.EstimateGEMM(g) {
		t.Errorf("estimate with a level buffer %+v differs from EstimateGEMM %+v", est, e.EstimateGEMM(g))
	}
	if est.MemoryTime != slowest || est.DRAMBytes != levels[2].bytes {
		t.Errorf("MemoryTime %g / DRAMBytes %g disagree with the levels %+v", est.MemoryTime, est.DRAMBytes, levels)
	}
	// Inner levels see at least the traffic of outer levels (reuse only
	// reduces traffic moving outward).
	for i := 1; i < len(levels); i++ {
		if levels[i].bytes > levels[i-1].bytes*1.000001 {
			t.Errorf("traffic should not grow outward: %s=%g > %s=%g",
				levels[i].name, levels[i].bytes,
				levels[i-1].name, levels[i-1].bytes)
		}
	}
}

func TestTrafficAtLeastCompulsory(t *testing.T) {
	g := GEMM{M: 128, N: 128, K: 128, Precision: tech.FP16}
	if got := trafficThrough(g, 1e12); got != g.CompulsoryBytes() {
		t.Errorf("unbounded cache should give compulsory traffic: %g vs %g", got, g.CompulsoryBytes())
	}
}

func TestQuantizationDeratesOddShapes(t *testing.T) {
	e := a100Engine()
	aligned := e.quantization(GEMM{M: 128, N: 128, K: 128})
	odd := e.quantization(GEMM{M: 129, N: 128, K: 128})
	if aligned != 1 {
		t.Errorf("aligned quantization = %g, want 1", aligned)
	}
	if odd >= aligned {
		t.Error("off-tile M should derate efficiency")
	}
}

func TestElementwiseMemoryBound(t *testing.T) {
	e := a100Engine()
	w := Elementwise{Name: "layernorm", Elements: 2048 * 12288, BytesPerElem: 6, FLOPsPerElem: 8}
	est := e.EstimateElementwise(w)
	if est.Bound != BoundMemory {
		t.Errorf("layernorm bound = %v, want memory", est.Bound)
	}
	wantMem := 2048 * 12288 * 6 / (1.935e12 * 0.80)
	if math.Abs(est.MemoryTime-wantMem)/wantMem > 1e-9 {
		t.Errorf("elementwise memory time = %g, want %g", est.MemoryTime, wantMem)
	}
}

func TestElementwiseLaunchBoundWhenTiny(t *testing.T) {
	e := a100Engine()
	est := e.EstimateElementwise(Elementwise{Name: "tiny", Elements: 128, BytesPerElem: 2})
	if est.Bound != BoundLaunch {
		t.Errorf("tiny elementwise bound = %v, want launch", est.Bound)
	}
}

func TestArithmeticIntensity(t *testing.T) {
	g := GEMM{M: 1, N: 4096, K: 4096, Precision: tech.FP16}
	ai := g.ArithmeticIntensity()
	// GEMV intensity ≈ 1 FLOP/byte at fp16 (2*K*N flops / ~2*K*N bytes).
	if ai < 0.5 || ai > 2 {
		t.Errorf("GEMV arithmetic intensity = %g, want ≈ 1", ai)
	}
	fat := GEMM{M: 8192, N: 8192, K: 8192, Precision: tech.FP16}
	if fat.ArithmeticIntensity() < 1000 {
		t.Errorf("fat GEMM intensity = %g, want ≫ GEMV", fat.ArithmeticIntensity())
	}
}

func TestBatchedGEMMScalesLinearly(t *testing.T) {
	e := a100Engine()
	single := e.EstimateGEMM(GEMM{M: 2048, N: 2048, K: 128, Precision: tech.FP16})
	batched := e.EstimateGEMM(GEMM{M: 2048, N: 2048, K: 128, Batch: 8, Precision: tech.FP16})
	// Launch overhead is paid once, so 8x batch is slightly less than 8x
	// single time but at least 7x.
	lo := 7 * (single.Time - single.Launch)
	hi := 8 * single.Time
	if batched.Time < lo || batched.Time > hi {
		t.Errorf("batched time %g outside [%g, %g]", batched.Time, lo, hi)
	}
}

func TestBoundString(t *testing.T) {
	if BoundCompute.String() != "compute" || BoundMemory.String() != "memory" || BoundLaunch.String() != "launch" {
		t.Error("Bound string names wrong")
	}
}

// Property: GEMM time is monotone in every dimension.
func TestGEMMTimeMonotoneProperty(t *testing.T) {
	e := a100Engine()
	f := func(m, n, k uint8) bool {
		mi, ni, ki := int(m)+1, int(n)+1, int(k)+1
		base := e.EstimateGEMM(GEMM{M: mi, N: ni, K: ki, Precision: tech.FP16})
		grown := e.EstimateGEMM(GEMM{M: mi * 2, N: ni * 2, K: ki * 2, Precision: tech.FP16})
		return grown.Time >= base.Time
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the reported total time is always ≥ max(compute, memory) and
// ≥ launch overhead.
func TestEstimateLowerBoundsProperty(t *testing.T) {
	e := h100Engine()
	f := func(m, n, k uint16) bool {
		g := GEMM{M: int(m) + 1, N: int(n) + 1, K: int(k) + 1, Precision: tech.FP16}
		est := e.EstimateGEMM(g)
		return est.Time >= est.ComputeTime &&
			est.Time >= est.MemoryTime &&
			est.Time >= est.Launch
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: faster DRAM can only help — an H200 (H100 + HBM3e) never runs a
// kernel slower than an H100.
func TestFasterDRAMNeverSlowerProperty(t *testing.T) {
	h100 := h100Engine()
	h200 := New(arch.H200())
	f := func(m, n, k uint16) bool {
		g := GEMM{M: int(m) + 1, N: int(n) + 1, K: int(k) + 1, Precision: tech.FP16}
		return h200.EstimateGEMM(g).Time <= h100.EstimateGEMM(g).Time*1.000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
