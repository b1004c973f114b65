package sweep_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/sweep"
	"optimus/internal/tech"
)

func dgx(t testing.TB, gpus int) *arch.System {
	t.Helper()
	sys, err := arch.DGXA100(gpus)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// formatCandidates renders a ranking to the byte string the equivalence
// tests compare: every field that matters, at full float precision.
func formatCandidates(rows []sweep.Row) string {
	var b strings.Builder
	for _, r := range rows {
		m := r.Point.Map
		fmt.Fprintf(&b, "%s mb%d v%d %v t=%.17g mfu=%.17g mem=%.17g fits=%v\n",
			m, m.Microbatch, m.VirtualStages, r.Point.Recompute,
			r.Metrics.Time, r.Metrics.MFU, r.Metrics.Memory.Total(), r.Metrics.Fits)
	}
	return b.String()
}

// TestEngineMatchesSerialMapsearch is the core equivalence guarantee: on
// the one-cell grids of the mapping planner, the concurrent engine
// returns byte-identical rankings to the Serial golden reference at any
// worker count, including the AllowOverflow and TopK paths.
func TestEngineMatchesSerialMapsearch(t *testing.T) {
	cases := []struct {
		name        string
		model       model.Config
		gpus, batch int
		constraints sweep.Constraints
	}{
		{"gpt22b-8gpu-defaults", model.GPT22B(), 8, 8, sweep.Constraints{}},
		{"gpt175b-64gpu-defaults", model.GPT175B(), 64, 64, sweep.Constraints{}},
		{"gpt7b-16gpu-topk25", model.GPT7B(), 16, 32, sweep.Constraints{TopK: 25}},
		{"gpt175b-64gpu-overflow", model.GPT175B(), 64, 64,
			sweep.Constraints{AllowOverflow: true, TopK: 50}},
		{"gpt22b-16gpu-custom-axes", model.GPT22B(), 16, 16,
			sweep.Constraints{
				Microbatches:  []int{1, 2, 4, 8},
				Recomputes:    []memfoot.Recompute{memfoot.NoRecompute, memfoot.Full},
				AllowOverflow: true,
				TopK:          40,
			}},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := planCell(t, tc.model, tc.gpus, tc.batch, tc.constraints)
			want, err := sweep.Serial(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("empty reference ranking")
			}
			if want.Stats.Pruned != 0 || want.Stats.MemoHits != 0 {
				t.Errorf("serial path must not prune or memoize: %s", want.Stats)
			}
			golden := formatCandidates(want.Rows)
			for _, workers := range workerCounts {
				spec.Workers = workers
				res, err := sweep.Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := formatCandidates(res.Rows); got != golden {
					t.Errorf("workers=%d ranking diverges from Serial:\ngot:\n%swant:\n%s",
						workers, got, golden)
				}
				if tc.name == "gpt175b-64gpu-defaults" && res.Stats.Pruned == 0 {
					t.Errorf("workers=%d: expected feasibility pruning on a memory-tight search, got none (%s)",
						workers, res.Stats)
				}
			}
		})
	}
}

// formatRows renders grid rows including their cell identity.
func formatRows(rows []sweep.Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s|%s|b%d|%s|mb%d|%v|t=%.17g|fits=%v\n",
			r.Point.Model.Name, r.Point.System, r.Point.GlobalBatch,
			r.Point.Map, r.Point.Map.Microbatch, r.Point.Recompute,
			r.Metrics.Time, r.Metrics.Fits)
	}
	return b.String()
}

// TestGridDeterministicAcrossWorkerCounts sweeps a multi-cell grid and
// checks the ranking is identical for every pool size and equal to the
// serial reference.
func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT22B(), model.GPT7B()},
		Systems:       []*arch.System{dgx(t, 8), dgx(t, 16)},
		GlobalBatches: []int{16, 32},
		Constraints:   sweep.Constraints{TopK: 30},
	}
	ref, err := sweep.Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	golden := formatRows(ref.Rows)
	if len(ref.Rows) == 0 {
		t.Fatal("empty reference ranking")
	}
	for _, workers := range []int{1, 2, 5, 16} {
		spec.Workers = workers
		res, err := sweep.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := formatRows(res.Rows); got != golden {
			t.Errorf("workers=%d grid ranking diverges:\ngot:\n%swant:\n%s", workers, got, golden)
		}
		if res.Stats.Enumerated != ref.Stats.Enumerated {
			t.Errorf("workers=%d enumerated %d, serial %d", workers,
				res.Stats.Enumerated, ref.Stats.Enumerated)
		}
	}
}

// TestEnumerateCrossProduct checks the grid expands every axis and
// deduplicates repeated cells.
func TestEnumerateCrossProduct(t *testing.T) {
	cfg := model.GPT22B()
	sys := dgx(t, 8)
	one := sweep.Enumerate(sweep.Spec{
		Models: []model.Config{cfg}, Systems: []*arch.System{sys},
		GlobalBatches: []int{16},
	})
	if len(one) == 0 {
		t.Fatal("empty enumeration")
	}
	two := sweep.Enumerate(sweep.Spec{
		Models: []model.Config{cfg}, Systems: []*arch.System{sys},
		GlobalBatches: []int{16, 32},
	})
	if len(two) <= len(one) {
		t.Errorf("adding a batch axis did not grow the grid: %d -> %d", len(one), len(two))
	}
	dup := sweep.Enumerate(sweep.Spec{
		Models: []model.Config{cfg, cfg}, Systems: []*arch.System{sys, sys},
		GlobalBatches: []int{16},
	})
	if len(dup) != len(one) {
		t.Errorf("duplicated grid cells not deduplicated: %d != %d", len(dup), len(one))
	}
	keys := make(map[string]bool)
	for _, p := range two {
		k := p.Key()
		if keys[k] {
			t.Fatalf("duplicate key in enumeration: %s", k)
		}
		keys[k] = true
	}
}

// trainingCell is the one-cell training grid of cfg on sys at a global
// batch, 2048-token sequences and BF16.
func trainingCell(cfg model.Config, sys *arch.System, batch int, c sweep.Constraints) sweep.Spec {
	return sweep.Spec{
		Models: []model.Config{cfg}, Systems: []*arch.System{sys}, Precisions: []tech.Precision{tech.BF16},
		GlobalBatches: []int{batch}, Seqs: []int{2048}, Constraints: c,
	}
}

// TestMicrobatchDiversity guards the enumeration against the seed bug
// where the dedup key omitted the microbatch, so only the first candidate
// microbatch size was ever evaluated.
func TestMicrobatchDiversity(t *testing.T) {
	points := sweep.Enumerate(trainingCell(model.GPT22B(), dgx(t, 8), 16,
		sweep.Constraints{Microbatches: []int{1, 2, 4}}))
	seen := make(map[int]bool)
	for _, p := range points {
		seen[p.Map.Microbatch] = true
	}
	for _, mb := range []int{1, 2, 4} {
		if !seen[mb] {
			t.Errorf("microbatch %d missing from the enumeration", mb)
		}
	}
}

// TestPP1SurvivesScheduleOrder guards against dropping all non-pipelined
// mappings when 1F1B is not the first entry of a custom schedule list
// (interleaved is invalid at PP=1, so the next schedule must step in).
func TestPP1SurvivesScheduleOrder(t *testing.T) {
	points := sweep.Enumerate(trainingCell(model.GPT22B(), dgx(t, 8), 16,
		sweep.Constraints{Schedules: []parallel.Schedule{parallel.Interleaved1F1B, parallel.OneFOneB}}))
	pp1 := 0
	for _, p := range points {
		if p.Map.PP == 1 {
			pp1++
			if p.Map.Schedule != parallel.OneFOneB {
				t.Errorf("PP=1 candidate carries invalid schedule %v", p.Map.Schedule)
			}
		}
	}
	if pp1 == 0 {
		t.Error("no PP=1 candidates when interleaved is listed first")
	}
	// And at PP=1 only one schedule variant must survive.
	seen := make(map[string]int)
	for _, p := range points {
		if p.Map.PP == 1 {
			k := fmt.Sprintf("%d-%d-%d", p.Map.DP, p.Map.TP, p.Map.Microbatch)
			seen[k]++
		}
	}
	for k, n := range seen {
		if n > 3 { // one per recompute regime
			t.Errorf("PP=1 cell %s enumerated %d times", k, n)
		}
	}
}

// TestSameNameDifferentConfigNoCollision guards the memo/dedup key
// against colliding on edited-but-same-named configurations (§3.1
// external descriptions): a half-memory "a100" must not be answered with
// the full-memory system's cached metrics.
func TestSameNameDifferentConfigNoCollision(t *testing.T) {
	full := dgx(t, 8)
	halfDev := arch.A100()
	halfDev.Mem[len(halfDev.Mem)-1].Capacity /= 2
	half, err := arch.SystemOf(halfDev, 8, 8, tech.NVLink3, tech.IBHDR)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT22B()},
		Systems:       []*arch.System{full, half},
		GlobalBatches: []int{16},
		Constraints:   sweep.Constraints{AllowOverflow: true, TopK: 100000},
	}
	points := sweep.Enumerate(spec)
	bySystem := make(map[*arch.System]int)
	for _, p := range points {
		bySystem[p.System]++
	}
	if bySystem[half] == 0 {
		t.Fatal("same-named second system was deduplicated away")
	}
	e := sweep.New(2)
	res, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MemoHits != 0 {
		t.Errorf("distinct configurations shared memo entries: %s", res.Stats)
	}
	// The same mapping must report different fit verdicts on the two
	// systems for at least one memory-borderline candidate.
	fits := make(map[string][2]bool)
	for _, r := range res.Rows {
		k := r.Point.Map.String() + r.Point.Recompute.String() +
			fmt.Sprint(r.Point.Map.Microbatch)
		v := fits[k]
		if r.Point.System == full {
			v[0] = r.Metrics.Fits
		} else {
			v[1] = r.Metrics.Fits
		}
		fits[k] = v
	}
	diverged := false
	for _, v := range fits {
		if v[0] != v[1] {
			diverged = true
		}
	}
	if !diverged {
		t.Error("halving device memory changed no fit verdict — keys may still collide")
	}
}

// TestInferenceSweep ranks serving configurations across system sizes.
func TestInferenceSweep(t *testing.T) {
	var systems []*arch.System
	for _, gpus := range []int{1, 2, 4} {
		sys, err := arch.SystemOf(arch.H100(), gpus, 8, tech.NVLink4, tech.IBNDR)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	spec := sweep.Spec{
		Workload:      sweep.Inference,
		Models:        []model.Config{model.Llama2_13B()},
		Systems:       systems,
		GlobalBatches: []int{1, 4},
		Seqs:          []int{200},
		GenTokens:     []int{200},
		Constraints:   sweep.Constraints{TopK: 20, AllowOverflow: true},
	}
	res, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("expected 6 rows (3 systems x 2 batches), got %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r.Metrics.Time <= 0 {
			t.Errorf("row %d has non-positive latency", i)
		}
		if r.Metrics.Footprint.Total() <= 0 {
			t.Errorf("row %d has empty footprint", i)
		}
		if i > 0 && r.Metrics.Fits == res.Rows[i-1].Metrics.Fits &&
			r.Metrics.Time < res.Rows[i-1].Metrics.Time {
			t.Errorf("rows not sorted by latency at %d", i)
		}
	}
	ref, err := sweep.Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if formatRows(res.Rows) != formatRows(ref.Rows) {
		t.Error("inference engine ranking diverges from serial")
	}
}

// TestSpecValidation rejects malformed grids.
func TestSpecValidation(t *testing.T) {
	if _, err := sweep.Run(context.Background(), sweep.Spec{}); err == nil {
		t.Error("empty spec should error")
	}
	if _, err := sweep.Serial(sweep.Spec{Models: []model.Config{model.GPT7B()}}); err == nil {
		t.Error("spec without systems should error")
	}
	bad := sweep.Spec{
		Models: []model.Config{model.GPT7B()}, Systems: []*arch.System{dgx(t, 8)},
		GlobalBatches: []int{-1},
	}
	if _, err := sweep.Run(context.Background(), bad); err == nil {
		t.Error("negative batch should error")
	}
	if _, err := sweep.Run(context.Background(), sweep.Spec{
		Models: []model.Config{model.GPT7B()}, Systems: []*arch.System{nil},
	}); err == nil {
		t.Error("nil system should error")
	}
	if _, err := sweep.Serial(sweep.Spec{
		Workload: sweep.Inference,
		Models:   []model.Config{model.GPT7B()}, Systems: []*arch.System{dgx(t, 8)},
		GenTokens: []int{-1},
	}); err == nil {
		t.Error("negative generation length should error")
	}
	if _, err := sweep.Serial(sweep.Spec{
		Workload: sweep.Inference,
		Models:   []model.Config{model.GPT7B()}, Systems: []*arch.System{dgx(t, 8)},
		Constraints: sweep.Constraints{Microbatches: []int{8}},
	}); err == nil {
		t.Error("training-only constraints on an inference sweep should error")
	}
	if _, err := sweep.Serial(sweep.Spec{
		Workload: sweep.Workload(7),
		Models:   []model.Config{model.GPT7B()}, Systems: []*arch.System{dgx(t, 8)},
	}); err == nil {
		t.Error("unknown workload should error")
	}
	if _, err := sweep.Serial(sweep.Spec{
		Models: []model.Config{model.GPT7B()}, Systems: []*arch.System{dgx(t, 8)},
		Constraints: sweep.Constraints{Microbatches: []int{0}},
	}); err == nil {
		t.Error("zero microbatch should error, not panic")
	}
}

// TestDivisorsViaEnumeration pins the divisor-driven mapping space: on 12
// devices with unconstrained TP, the TP degrees seen are exactly the
// divisors of 12 that divide the head count.
func TestDivisorsViaEnumeration(t *testing.T) {
	sys, err := arch.SystemOf(arch.A100(), 12, 12, tech.NVLink3, tech.IBHDR)
	if err != nil {
		t.Fatal(err)
	}
	points := sweep.Enumerate(trainingCell(model.GPT7B(), sys, 24, sweep.Constraints{MaxTP: 12}))
	seen := make(map[int]bool)
	for _, p := range points {
		seen[p.Map.TP] = true
	}
	// GPT-7B has 32 heads: of 12's divisors {1,2,3,4,6,12}, only {1,2,4}
	// divide 32.
	for _, tp := range []int{1, 2, 4} {
		if !seen[tp] {
			t.Errorf("TP %d missing", tp)
		}
	}
	for _, tp := range []int{3, 6, 12} {
		if seen[tp] {
			t.Errorf("TP %d does not divide 32 heads but was enumerated", tp)
		}
	}
}
