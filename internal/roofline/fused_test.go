package roofline

import (
	"math"
	"testing"

	"optimus/internal/tech"
)

func TestEstimateFusedComputeVsMemory(t *testing.T) {
	e := a100Engine()
	// A flash-attention-shaped kernel: heavy FLOPs, light traffic →
	// compute-bound on the tensor cores.
	hot := Fused{Name: "flash", FLOPs: 1e12, DRAMBytes: 50e6, Precision: tech.BF16}
	est := e.EstimateFused(hot)
	if est.Bound != BoundCompute {
		t.Errorf("FLOP-heavy fused kernel bound = %v, want compute", est.Bound)
	}
	want := 1e12 / (312e12 * e.Device().GEMMEff)
	if math.Abs(est.ComputeTime-want)/want > 1e-9 {
		t.Errorf("compute time = %g, want %g", est.ComputeTime, want)
	}

	// The reverse: tiny FLOPs, heavy streaming → DRAM-bound.
	cold := Fused{Name: "stream", FLOPs: 1e6, DRAMBytes: 1e9, Precision: tech.BF16}
	est = e.EstimateFused(cold)
	if est.Bound != BoundMemory || est.BoundLevel != "HBM" {
		t.Errorf("stream-heavy fused kernel bound = %v (%s), want memory/HBM", est.Bound, est.BoundLevel)
	}
}

func TestEstimateFusedLaunchFloor(t *testing.T) {
	e := a100Engine()
	est := e.EstimateFused(Fused{Name: "tiny", FLOPs: 1e3, DRAMBytes: 1e3, Precision: tech.FP16})
	if est.Bound != BoundLaunch {
		t.Errorf("tiny fused kernel bound = %v, want launch", est.Bound)
	}
	if est.Time < e.Device().KernelLaunch {
		t.Error("time must include launch overhead")
	}
}

func TestEstimateFusedOnChipDefault(t *testing.T) {
	e := a100Engine()
	levels := make([]levelTime, len(e.Device().Mem))
	dram := len(levels) - 1
	e.fused(Fused{Name: "f", FLOPs: 1e9, DRAMBytes: 1e8, Precision: tech.FP16}, levels)
	if levels[0].bytes != 2e8 || levels[dram].bytes != 1e8 {
		t.Errorf("default on-chip traffic = %g (DRAM %g), want 2x DRAM", levels[0].bytes, levels[dram].bytes)
	}
	// Explicit on-chip traffic overrides the default.
	e.fused(Fused{Name: "f", FLOPs: 1e9, DRAMBytes: 1e8, OnChipBytes: 5e8, Precision: tech.FP16}, levels)
	if levels[0].bytes != 5e8 {
		t.Errorf("explicit on-chip traffic = %g, want 5e8", levels[0].bytes)
	}
}

// Property-style check: a fused kernel is never slower than running the
// same FLOPs and bytes as an unfused GEMM whose score matrix round-trips
// through DRAM.
func TestFusedNeverSlowerThanMaterialized(t *testing.T) {
	e := a100Engine()
	flops := 4.0 * 2048 * 2048 * 128 * 16
	ioBytes := 4.0 * 2048 * 128 * 16 * 2
	scoreBytes := 2.0 * 16 * 2048 * 2048 * 2

	fused := e.EstimateFused(Fused{Name: "flash", FLOPs: flops, DRAMBytes: ioBytes, Precision: tech.FP16})
	materialized := e.EstimateFused(Fused{Name: "std", FLOPs: flops, DRAMBytes: ioBytes + 2*scoreBytes, Precision: tech.FP16})
	if fused.Time > materialized.Time {
		t.Errorf("fused %g slower than materialized %g", fused.Time, materialized.Time)
	}
}
