package repro

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric cell, stripping a trailing '%'.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return v
}

// find returns the first row whose leading cells equal the given prefix.
func find(t *testing.T, tb Table, prefix ...string) []string {
	t.Helper()
	for _, row := range tb.Rows {
		ok := len(row) >= len(prefix)
		for i := range prefix {
			if ok && row[i] != prefix[i] {
				ok = false
			}
		}
		if ok {
			return row
		}
	}
	t.Fatalf("row %v not found in %s", prefix, tb.ID)
	return nil
}

func TestAllGeneratorsProduceTables(t *testing.T) {
	for _, id := range IDs() {
		tb, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 || len(tb.Header) == 0 {
			t.Errorf("%s: empty table", id)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s: row width %d != header width %d", id, len(row), len(tb.Header))
			}
		}
		if !strings.Contains(tb.String(), strings.ToUpper(id)) {
			t.Errorf("%s: rendering lacks the id banner", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestTable1ErrorsWithinBand(t *testing.T) {
	tb, err := table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11 {
		t.Fatalf("Table 1 has %d rows, want 11", len(tb.Rows))
	}
	errCol := len(tb.Header) - 1
	for _, row := range tb.Rows {
		if e := cell(t, row[errCol]); e > 12 {
			t.Errorf("%s: error %.1f%% above the 12%% gate", row[0], e)
		}
	}
}

func TestTable2ErrorsWithinBand(t *testing.T) {
	tb, err := table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11 {
		t.Fatalf("Table 2 has %d rows, want 11", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if e := cell(t, row[5]); e > 20 {
			t.Errorf("%s A100: error %.1f%% above the 20%% gate", row[0], e)
		}
		if e := cell(t, row[8]); e > 20 {
			t.Errorf("%s H100: error %.1f%% above the 20%% gate", row[0], e)
		}
	}
}

func TestTable4BoundFlips(t *testing.T) {
	tb, err := table4()
	if err != nil {
		t.Fatal(err)
	}
	// Large GEMMs: compute-bound on A100, memory-bound on H100.
	for _, fn := range []string{"merged-head X.Wkqv = K,Q,V", "Z.W = O", "O1.Wmlp2 = O2"} {
		row := find(t, tb, fn)
		if row[2] != "compute" {
			t.Errorf("%s: A100 bound = %s, want compute", fn, row[2])
		}
		if row[5] != "memory" {
			t.Errorf("%s: H100 bound = %s, want memory", fn, row[5])
		}
	}
	// Single-head kernels: µs scale, filed under memory.
	row := find(t, tb, "single-head Q.K^T = R")
	if v := cell(t, row[1]); v > 10 {
		t.Errorf("single-head A100 time %.1fµs, want < 10µs", v)
	}
	if !strings.HasPrefix(row[2], "memory") {
		t.Errorf("single-head A100 bound = %s, want memory*", row[2])
	}
}

func TestFig4RecomputeOrderingAndFit(t *testing.T) {
	tb, err := fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("Fig 4 has %d rows, want 9", len(tb.Rows))
	}
	for _, m := range []string{"GPT-175B", "GPT-530B", "GPT-1008B"} {
		none := cell(t, find(t, tb, m, "none")[4])
		sel := cell(t, find(t, tb, m, "selective")[4])
		full := cell(t, find(t, tb, m, "full")[4])
		if !(none > sel && sel > full) {
			t.Errorf("%s: activation ordering violated: %g %g %g", m, none, sel, full)
		}
		if tot := cell(t, find(t, tb, m, "none")[5]); tot < 80 {
			t.Errorf("%s no-recompute total %.0f GB should exceed 80", m, tot)
		}
	}
	// GPT-175B with selective recomputation fits the A100 (§5.1).
	if fits := find(t, tb, "GPT-175B", "selective")[6]; fits != "yes" {
		t.Error("GPT-175B selective should fit 80 GB")
	}
}

func TestFig5MonotoneSpeedups(t *testing.T) {
	tb, err := fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Fatalf("Fig 5 has %d rows, want 7", len(tb.Rows))
	}
	// The §5.2 dominance relations: each upgrade the text calls out must
	// help. (H200-NVS-L and B200-NDR are adjacent, nearly equal bars in
	// the paper's figure, so no ordering is asserted between them.)
	norm := func(name string) float64 { return cell(t, find(t, tb, name)[4]) }
	if norm("A100-HDR") < 10 {
		t.Errorf("A100-HDR normalized %.1f, want ≥ 10x slower than B200-NVS-L", norm("A100-HDR"))
	}
	relations := [][2]string{
		{"A100-HDR", "H100-NDR"},   // ~4x from Hopper + NDR
		{"H100-NDR", "H100-NVS"},   // NVLink switch system
		{"H100-NVS", "H200-NVS-L"}, // HBM3e + larger batch
		{"H100-NDR", "B200-NDR"},   // Blackwell FP4
		{"B200-NDR", "B200-NVS"},
		{"B200-NVS", "B200-NVS-L"},
	}
	for _, r := range relations {
		if !(norm(r[0]) > norm(r[1])) {
			t.Errorf("%s (%.2f) should be slower than %s (%.2f)", r[0], norm(r[0]), r[1], norm(r[1]))
		}
	}
	if last := norm("B200-NVS-L"); last != 1.0 {
		t.Errorf("B200-NVS-L normalized = %g, want 1.0", last)
	}
	// Breakdown sums approximately to the normalized total.
	for _, row := range tb.Rows {
		sum := cell(t, row[5]) + cell(t, row[6]) + cell(t, row[7])
		if diff := sum - cell(t, row[4]); diff > 0.35 || diff < -0.35 {
			t.Errorf("%s: breakdown %.1f does not sum to total %.1f", row[0], sum, cell(t, row[4]))
		}
	}
}

func TestFig6ScalingShape(t *testing.T) {
	tb, err := fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig 6 has %d series, want 6", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		// Execution time decreases monotonically with node scaling...
		for i := 2; i < len(row); i++ {
			if cell(t, row[i]) > cell(t, row[i-1])*1.02 {
				t.Errorf("%s: time increased from %s to %s", row[0], tb.Header[i-1], tb.Header[i])
			}
		}
		// ...but saturates: the last step gains less than the first.
		first := cell(t, row[1]) - cell(t, row[2])
		last := cell(t, row[len(row)-2]) - cell(t, row[len(row)-1])
		if last > first {
			t.Errorf("%s: no saturation (first gain %.2f, last gain %.2f)", row[0], first, last)
		}
	}
	// HBM2 → HBM2e helps at every node; HBM3 → HBM4 is marginal (§5.3).
	hbm2 := tb.Rows[0]
	hbm2e := tb.Rows[1]
	hbm3 := tb.Rows[2]
	hbm4 := tb.Rows[3]
	for i := 1; i < len(hbm2); i++ {
		if cell(t, hbm2e[i]) >= cell(t, hbm2[i]) {
			t.Errorf("HBM2e should beat HBM2 at %s", tb.Header[i])
		}
		if gain := cell(t, hbm3[i]) - cell(t, hbm4[i]); gain > 0.05 {
			t.Errorf("HBM3→HBM4 gain %.2fs at %s should be marginal (network-bound)", gain, tb.Header[i])
		}
	}
	// Faster networks shift the HBM4 curve down at the final node.
	n1 := len(hbm4) - 1
	if !(cell(t, tb.Rows[5][n1]) < cell(t, tb.Rows[3][n1])) {
		t.Error("400 GB/s network should beat 100 GB/s at N1")
	}
}

func TestFig7MemoryShareGrows(t *testing.T) {
	tb, err := fig7()
	if err != nil {
		t.Fatal(err)
	}
	share := func(dram, node string) float64 {
		return cell(t, find(t, tb, dram, node)[5])
	}
	// Memory-bound share grows from N12 to N1 for every DRAM generation.
	for _, d := range []string{"HBM2", "HBM3", "HBM4"} {
		if !(share(d, "N1") > share(d, "N12")) {
			t.Errorf("%s: memory share should grow with node scaling", d)
		}
	}
	// Faster HBM defers the memory-bound flip.
	if !(share("HBM3", "N1") < share("HBM2", "N1")) {
		t.Error("HBM3 should be less memory-bound than HBM2 at N1")
	}
	// Total per-layer GEMM time shrinks with scaling.
	if !(cell(t, find(t, tb, "HBM2", "N1")[4]) < cell(t, find(t, tb, "HBM2", "N12")[4])) {
		t.Error("layer GEMM time should shrink with node scaling")
	}
}

func TestFig8Fractions(t *testing.T) {
	tb, err := fig8()
	if err != nil {
		t.Fatal(err)
	}
	frac := func(dev, batch string) float64 {
		return cell(t, find(t, tb, dev, batch)[4])
	}
	// Paper: A100 67%→96%, H100 0%→85%.
	if f := frac("A100-80GB", "1"); f < 50 || f > 90 {
		t.Errorf("A100 B=1 compute share %.0f%%, want 50-90%% (paper 67%%)", f)
	}
	if f := frac("A100-80GB", "16"); f < 90 {
		t.Errorf("A100 B=16 compute share %.0f%%, want ≥ 90%% (paper 96%%)", f)
	}
	if f := frac("H100-SXM", "1"); f != 0 {
		t.Errorf("H100 B=1 compute share %.0f%%, want 0%%", f)
	}
	if f := frac("H100-SXM", "16"); f < 70 {
		t.Errorf("H100 B=16 compute share %.0f%%, want ≥ 70%% (paper 85%%)", f)
	}
	// Inset: weights ≈ 26 GB, KV cache grows 16x with batch.
	w := cell(t, find(t, tb, "A100-80GB", "1")[5])
	if w < 24 || w > 28 {
		t.Errorf("weights %.1f GB, want ≈ 26", w)
	}
	kv1 := cell(t, find(t, tb, "A100-80GB", "1")[6])
	kv16 := cell(t, find(t, tb, "A100-80GB", "16")[6])
	if r := kv16 / kv1; r < 15 || r > 17 {
		t.Errorf("KV cache batch scaling = %.1fx, want 16x", r)
	}
}

func TestFig9SaturationAndComm(t *testing.T) {
	tb, err := fig9()
	if err != nil {
		t.Fatal(err)
	}
	mem := func(label, gpus string) float64 {
		return cell(t, find(t, tb, label, gpus)[3])
	}
	// Memory time falls monotonically with DRAM bandwidth...
	order := []string{"GDR6-NV3", "HBM2-NV3", "HBM2e-NV3", "HBM3-NV3", "HBM3e-NV3"}
	for i := 1; i < len(order); i++ {
		if !(mem(order[i], "2") < mem(order[i-1], "2")) {
			t.Errorf("memory time should fall from %s to %s", order[i-1], order[i])
		}
	}
	// ...but saturates beyond HBM3e (L2-bound, §6.2): HBMX gains < 10%.
	gain := (mem("HBM3e-NV3", "2") - mem("HBMX-NV3", "2")) / mem("HBM3e-NV3", "2")
	if gain > 0.10 {
		t.Errorf("HBM3e→HBMX memory gain %.0f%% should be <10%% (L2 bound)", 100*gain)
	}
	// NV3→NV4 trims communication by ~12% (§6.2), band 5-25%.
	comm := func(label, gpus string) float64 {
		return cell(t, find(t, tb, label, gpus)[4])
	}
	commGain := (comm("HBMX-NV3", "8") - comm("HBMX-NV4", "8")) / comm("HBMX-NV3", "8")
	if commGain < 0.05 || commGain > 0.25 {
		t.Errorf("NV3→NV4 comm gain %.0f%%, want ≈ 12%%", 100*commGain)
	}
	// At 8 GPUs communication exceeds memory time on fast-memory systems.
	if cell(t, find(t, tb, "HBM3e-NV3", "8")[5]) < 1.0 {
		t.Error("8-GPU comm/memory ratio should exceed 1 at HBM3e")
	}
}

func TestFig3Notes(t *testing.T) {
	tb, err := fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 30 {
		t.Errorf("Fig 3 sweep too small: %d kernels", len(tb.Rows))
	}
	joined := strings.Join(tb.Notes, " ")
	if !strings.Contains(joined, "MAPE") || !strings.Contains(joined, "oracle") {
		t.Error("Fig 3 notes must report MAPE and the oracle substitution")
	}
}
