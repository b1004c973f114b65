package sweep_test

import (
	"context"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/sweep"
	"optimus/internal/tech"
	"optimus/internal/train"
)

// planCell is the one-cell training grid of the mapping planner (§5.1;
// optimus plan and optimus cost): one model on gpus DGX-A100 devices at
// one global batch, 2048-token sequences and BF16.
func planCell(t testing.TB, m model.Config, gpus, batch int, c sweep.Constraints) sweep.Spec {
	t.Helper()
	return sweep.Spec{
		Models:        []model.Config{m},
		Systems:       []*arch.System{dgx(t, gpus)},
		Precisions:    []tech.Precision{tech.BF16},
		GlobalBatches: []int{batch},
		Seqs:          []int{2048},
		Constraints:   c,
	}
}

// plan ranks a planner cell through the engine.
func plan(t *testing.T, s sweep.Spec) []sweep.Row {
	t.Helper()
	res, err := sweep.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func TestPlanFindsFittingStrategies(t *testing.T) {
	rows := plan(t, planCell(t, model.GPT175B(), 64, 64, sweep.Constraints{}))
	if len(rows) == 0 {
		t.Fatal("no candidates")
	}
	for i, r := range rows {
		if !r.Metrics.Fits {
			t.Errorf("candidate %d (%s) does not fit but overflow not allowed", i, r.Point.Map)
		}
		if r.Metrics.Time <= 0 {
			t.Errorf("candidate %d has non-positive time", i)
		}
		if i > 0 && r.Metrics.Time < rows[i-1].Metrics.Time-1e-12 {
			t.Error("candidates not sorted by time")
		}
	}
}

func TestBestBeatsOrMatchesPaperConfig(t *testing.T) {
	// The planner must find a strategy at least as fast as the paper's
	// hand-chosen 1-8-8 full-recompute configuration for GPT-175B/64.
	spec := planCell(t, model.GPT175B(), 64, 64, sweep.Constraints{})
	best := plan(t, spec)[0]
	paper, err := train.Predict(train.Spec{
		Model: spec.Models[0], System: spec.Systems[0],
		Map:         parallel.Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: parallel.OneFOneB},
		GlobalBatch: 64, Seq: 2048, Precision: tech.BF16,
		Recompute: memfoot.Full,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Metrics.Time > paper.Total*1.001 {
		t.Errorf("planner's best %.1fs is slower than the paper config %.1fs (%s)",
			best.Metrics.Time, paper.Total, best.Point.Map)
	}
	t.Logf("best: %s %v — %.1fs (MFU %.0f%%) vs paper config %.1fs",
		best.Point.Map, best.Point.Recompute, best.Metrics.Time, 100*best.Metrics.MFU, paper.Total)
}

func TestTPStaysInNode(t *testing.T) {
	for _, r := range plan(t, planCell(t, model.GPT22B(), 16, 16, sweep.Constraints{})) {
		if r.Point.Map.TP > 8 {
			t.Errorf("TP %d exceeds the node size", r.Point.Map.TP)
		}
		if r.Point.Map.Devices() != 16 {
			t.Errorf("mapping %s does not use all 16 devices", r.Point.Map)
		}
	}
}

func TestLargeModelNeedsRecompute(t *testing.T) {
	// GPT-1008B on 512 GPUs cannot fit without activation recomputation;
	// every fitting strategy must use one.
	cfg, err := model.ByName("gpt-1008b")
	if err != nil {
		t.Fatal(err)
	}
	rows := plan(t, planCell(t, cfg, 512, 512, sweep.Constraints{}))
	if len(rows) == 0 {
		t.Fatal("no candidates")
	}
	for _, r := range rows {
		if r.Point.Recompute == memfoot.NoRecompute {
			t.Errorf("no-recompute strategy %s claims to fit a 1T model", r.Point.Map)
		}
	}
}

func TestAllowOverflowRanksFittingFirst(t *testing.T) {
	rows := plan(t, planCell(t, model.GPT175B(), 64, 64,
		sweep.Constraints{AllowOverflow: true, TopK: 50}))
	seenOverflow := false
	for _, r := range rows {
		if !r.Metrics.Fits {
			seenOverflow = true
		} else if seenOverflow {
			t.Fatal("fitting candidate ranked after an overflowing one")
		}
	}
	if !seenOverflow {
		t.Error("no overflowing candidate ranked with AllowOverflow")
	}
}

func TestTopKBounds(t *testing.T) {
	if rows := plan(t, planCell(t, model.GPT22B(), 8, 8, sweep.Constraints{TopK: 3})); len(rows) != 3 {
		t.Errorf("TopK=3 returned %d candidates", len(rows))
	}
}

func TestPlanInputErrors(t *testing.T) {
	empty := planCell(t, model.GPT22B(), 8, 8, sweep.Constraints{})
	empty.Systems = nil
	if _, err := sweep.Run(context.Background(), empty); err == nil {
		t.Error("a cell without a system should error")
	}
	zero := planCell(t, model.GPT22B(), 8, 0, sweep.Constraints{})
	if _, err := sweep.Run(context.Background(), zero); err == nil {
		t.Error("zero batch should error")
	}
	// A batch size indivisible by any DP×microbatch has no strategies.
	if rows := plan(t, planCell(t, model.GPT22B(), 8, 7, sweep.Constraints{Microbatches: []int{16}})); len(rows) != 0 {
		t.Errorf("infeasible batch ranked %d strategies", len(rows))
	}
}
