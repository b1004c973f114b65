package infer

import (
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/comm"
	"optimus/internal/model"
	"optimus/internal/tech"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

// sysFor builds the Table 2 platform: n GPUs of the given preset in one
// node with the generation's NVLink fabric.
func sysFor(t *testing.T, dev arch.Device, n int, nv tech.NetworkTech) *arch.System {
	t.Helper()
	s, err := arch.SystemOf(dev, n, 8, nv, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func table2Spec(t *testing.T, modelName string, sys *arch.System, gpus int) Spec {
	t.Helper()
	cfg, err := model.ByName(modelName)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Model: cfg, System: sys, TP: gpus, Batch: 1,
		PromptTokens: 200, GenTokens: 200, Precision: tech.FP16,
	}
}

// TestTable2Validation: predictions must match NVIDIA's published Llama-2
// latencies in the same band the paper demonstrates (≤13% relative error,
// with one anomalous 8-GPU corner it discusses in §4.3).
// Gate: mean ≤ 10%, max ≤ 20%.
func TestTable2Validation(t *testing.T) {
	var errs []float64
	for _, c := range valdata.Table2() {
		for _, plat := range []struct {
			name string
			dev  arch.Device
			nv   tech.NetworkTech
			ref  float64
		}{
			{"A100", arch.A100(), tech.NVLink3, c.RefA100Ms},
			{"H100", arch.H100(), tech.NVLink4, c.RefH100Ms},
		} {
			sys := sysFor(t, plat.dev, c.GPUs, plat.nv)
			res, err := Predict(table2Spec(t, c.Model, sys, c.GPUs))
			if err != nil {
				t.Fatalf("%s %s: %v", c.Model, plat.name, err)
			}
			ms := res.Total * 1e3
			e := units.RelErr(ms, plat.ref)
			errs = append(errs, e)
			t.Logf("%-11s %d GPUs %s ref=%6.0fms pred=%6.0fms err=%5.1f%%",
				c.Model, c.GPUs, plat.name, plat.ref, ms, 100*e)
			if e > 0.20 {
				t.Errorf("%s %d GPUs %s: error %.1f%% exceeds 20%% gate",
					c.Model, c.GPUs, plat.name, 100*e)
			}
		}
	}
	if mean := units.Mean(errs); mean > 0.10 {
		t.Errorf("mean Table 2 error %.1f%% exceeds 10%% gate", 100*mean)
	}
}

func TestDecodeIsMemoryDominated(t *testing.T) {
	// §6.1: the autoregressive generation phase is DRAM-bound; decode time
	// dwarfs prefill compute for 200/200 tokens.
	sys := sysFor(t, arch.A100(), 1, tech.NVLink3)
	res, err := Predict(table2Spec(t, "Llama2-13B", sys, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryTime < 10*res.PrefillCompute {
		t.Errorf("decode memory time %g should dwarf prefill compute %g",
			res.MemoryTime, res.PrefillCompute)
	}
	if !units.AlmostEqual(res.Total, res.Prefill+res.Decode, 1e-9) {
		t.Error("total must equal prefill+decode")
	}
}

func TestHBMScalingSpeedsDecode(t *testing.T) {
	// H200 = H100 compute with HBM3e: decode must speed up by roughly the
	// bandwidth ratio (§6.2: performance scales with DRAM bandwidth until
	// the L2 bound).
	h100 := sysFor(t, arch.H100(), 1, tech.NVLink4)
	h200 := sysFor(t, arch.H200(), 1, tech.NVLink4)
	a, _ := Predict(table2Spec(t, "Llama2-13B", h100, 1))
	b, _ := Predict(table2Spec(t, "Llama2-13B", h200, 1))
	ratio := a.PerToken / b.PerToken
	if ratio < 1.2 || ratio > 4.8/3.35*1.1 {
		t.Errorf("H200/H100 decode speedup %.2f outside (1.2, ~1.43)", ratio)
	}
}

func TestInferenceScalesPoorly(t *testing.T) {
	// §4.3: "inference scales poorly with the number of GPUs, unlike
	// training" — 8 GPUs must yield far less than 8x over 1 GPU.
	cfg := "Llama2-13B"
	one, _ := Predict(table2Spec(t, cfg, sysFor(t, arch.A100(), 1, tech.NVLink3), 1))
	eight, _ := Predict(table2Spec(t, cfg, sysFor(t, arch.A100(), 8, tech.NVLink3), 8))
	speedup := one.Total / eight.Total
	if speedup < 1.2 {
		t.Errorf("8 GPUs should still help somewhat, got %.2fx", speedup)
	}
	if speedup > 4 {
		t.Errorf("8-GPU speedup %.2fx too ideal; decode should be comm-limited", speedup)
	}
}

func TestCommToMemoryRatioAt8GPUs(t *testing.T) {
	// §6.2: "for 8 GPUs, communication time is roughly 1.6x of memory
	// time (for Llama2-13B)". Accept 1.1-2.1.
	sys := sysFor(t, arch.A100(), 8, tech.NVLink3)
	res, _ := Predict(table2Spec(t, "Llama2-13B", sys, 8))
	ratio := res.CommTime / res.MemoryTime
	if ratio < 1.1 || ratio > 2.1 {
		t.Errorf("comm/memory ratio at 8 GPUs = %.2f, want ≈ 1.6", ratio)
	}
}

func TestTreeBeatsRingForInference(t *testing.T) {
	// §3.4: the double-binary-tree's log latency term "helps scale
	// inference up to 8 GPUs".
	sys := sysFor(t, arch.A100(), 8, tech.NVLink3)
	spec := table2Spec(t, "Llama2-13B", sys, 8)
	spec.Algorithm = comm.DoubleBinaryTree
	tree, _ := Predict(spec)
	spec.Algorithm = comm.Ring
	ring, _ := Predict(spec)
	if tree.CommTime >= ring.CommTime {
		t.Errorf("tree comm %g should beat ring %g at 8 GPUs", tree.CommTime, ring.CommTime)
	}
}

func TestPrefillGEMMTableMatchesPaperBounds(t *testing.T) {
	// Table 4's qualitative result: on A100 the projection/MLP GEMMs are
	// compute-bound; on H100 every large GEMM flips to memory-bound. The
	// single-head kernels are tiny (µs-scale software/memory limited).
	a100 := sysFor(t, arch.A100(), 1, tech.NVLink3)
	h100 := sysFor(t, arch.H100(), 1, tech.NVLink4)

	aRows, err := PrefillGEMMTable(table2Spec(t, "Llama2-13B", a100, 1))
	if err != nil {
		t.Fatal(err)
	}
	hRows, err := PrefillGEMMTable(table2Spec(t, "Llama2-13B", h100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(aRows) != 6 || len(hRows) != 6 {
		t.Fatalf("want 6 GEMM rows, got %d / %d", len(aRows), len(hRows))
	}
	for i, r := range aRows {
		big := !strings.Contains(r.Function, "single-head")
		if big && r.Bound != "compute" {
			t.Errorf("A100 %s bound = %s, want compute", r.Function, r.Bound)
		}
		if !big && r.Time > 10e-6 {
			t.Errorf("A100 %s = %g, want µs-scale", r.Function, r.Time)
		}
		if big && hRows[i].Bound != "memory" {
			t.Errorf("H100 %s bound = %s, want memory", hRows[i].Function, hRows[i].Bound)
		}
		if hRows[i].Time >= r.Time {
			t.Errorf("%s: H100 (%g) must be faster than A100 (%g)",
				r.Function, hRows[i].Time, r.Time)
		}
	}
}

func TestFootprintGatesFit(t *testing.T) {
	// Llama2-70B at fp16 (140 GB) cannot fit one 80 GB A100 — Table 2
	// only lists it from 2 GPUs up.
	sys := sysFor(t, arch.A100(), 1, tech.NVLink3)
	res, err := Predict(table2Spec(t, "Llama2-70B", sys, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fits {
		t.Error("70B should not fit a single 80 GB device")
	}
	sys2 := sysFor(t, arch.A100(), 2, tech.NVLink3)
	res2, _ := Predict(table2Spec(t, "Llama2-70B", sys2, 2))
	if !res2.Fits {
		t.Error("70B should fit across two 80 GB devices")
	}
}

func TestKVCacheGrowthSlowsLaterTokens(t *testing.T) {
	// Longer generations read a longer cache: mean per-token time grows
	// with the generation length.
	sys := sysFor(t, arch.A100(), 1, tech.NVLink3)
	short := table2Spec(t, "Llama2-13B", sys, 1)
	short.GenTokens = 50
	long := short
	long.GenTokens = 1600
	a, _ := Predict(short)
	b, _ := Predict(long)
	if b.PerToken <= a.PerToken {
		t.Errorf("per-token time should grow with context: %g vs %g", b.PerToken, a.PerToken)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	sys := sysFor(t, arch.A100(), 2, tech.NVLink3)
	good := table2Spec(t, "Llama2-13B", sys, 2)

	bad := good
	bad.TP = 4 // != system devices
	if _, err := Predict(bad); err == nil {
		t.Error("TP/system mismatch should error")
	}
	bad = good
	bad.Batch = 0
	if _, err := Predict(bad); err == nil {
		t.Error("zero batch should error")
	}
	bad = good
	bad.PromptTokens = 0
	if _, err := Predict(bad); err == nil {
		t.Error("zero prompt should error")
	}
	bad = good
	bad.GenTokens = -1
	if _, err := Predict(bad); err == nil {
		t.Error("negative generation should error")
	}
}

func TestZeroGenTokensPrefillOnly(t *testing.T) {
	sys := sysFor(t, arch.A100(), 1, tech.NVLink3)
	spec := table2Spec(t, "Llama2-13B", sys, 1)
	spec.GenTokens = 0
	res, err := Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decode != 0 || res.PerToken != 0 {
		t.Error("no generation should mean no decode time")
	}
	if res.Prefill <= 0 {
		t.Error("prefill must still be predicted")
	}
}
