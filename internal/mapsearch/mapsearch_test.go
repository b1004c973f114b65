package mapsearch

import (
	"testing"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/tech"
	"optimus/internal/train"
)

func request(t *testing.T, m model.Config, gpus, batch int) Request {
	t.Helper()
	sys, err := arch.DGXA100(gpus)
	if err != nil {
		t.Fatal(err)
	}
	return Request{
		Model: m, System: sys,
		GlobalBatch: batch, Seq: 2048, Precision: tech.BF16,
	}
}

func TestSearchFindsFittingStrategies(t *testing.T) {
	cands, err := Search(request(t, model.GPT175B(), 64, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i, c := range cands {
		if !c.Fits {
			t.Errorf("candidate %d (%s) does not fit but overflow not allowed", i, c.Map)
		}
		if c.Time <= 0 {
			t.Errorf("candidate %d has non-positive time", i)
		}
		if i > 0 && c.Time < cands[i-1].Time-1e-12 {
			t.Error("candidates not sorted by time")
		}
	}
}

func TestBestBeatsOrMatchesPaperConfig(t *testing.T) {
	// The planner must find a strategy at least as fast as the paper's
	// hand-chosen 1-8-8 full-recompute configuration for GPT-175B/64.
	req := request(t, model.GPT175B(), 64, 64)
	best, err := Best(req)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := train.Predict(train.Spec{
		Model: req.Model, System: req.System,
		Map:         parallel.Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: parallel.OneFOneB},
		GlobalBatch: 64, Seq: 2048, Precision: tech.BF16,
		Recompute: memfoot.Full,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Time > paper.Total*1.001 {
		t.Errorf("planner's best %.1fs is slower than the paper config %.1fs (%s)",
			best.Time, paper.Total, best.Map)
	}
	t.Logf("best: %s %v — %.1fs (MFU %.0f%%) vs paper config %.1fs",
		best.Map, best.Recompute, best.Time, 100*best.MFU, paper.Total)
}

func TestTPStaysInNode(t *testing.T) {
	cands, err := Search(request(t, model.GPT22B(), 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Map.TP > 8 {
			t.Errorf("TP %d exceeds the node size", c.Map.TP)
		}
		if c.Map.Devices() != 16 {
			t.Errorf("mapping %s does not use all 16 devices", c.Map)
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
	cands, err := Search(request(t, cfg, 512, 512))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Recompute == memfoot.NoRecompute {
			t.Errorf("no-recompute strategy %s claims to fit a 1T model", c.Map)
		}
	}
}

func TestAllowOverflowRanksFittingFirst(t *testing.T) {
	req := request(t, model.GPT175B(), 64, 64)
	req.Constraints.AllowOverflow = true
	req.Constraints.TopK = 50
	cands, err := Search(req)
	if err != nil {
		t.Fatal(err)
	}
	seenOverflow := false
	for _, c := range cands {
		if !c.Fits {
			seenOverflow = true
		} else if seenOverflow {
			t.Fatal("fitting candidate ranked after an overflowing one")
		}
	}
}

func TestTopKBounds(t *testing.T) {
	req := request(t, model.GPT22B(), 8, 8)
	req.Constraints.TopK = 3
	cands, err := Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) > 3 {
		t.Errorf("TopK=3 returned %d candidates", len(cands))
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(Request{}); err == nil {
		t.Error("empty request should error")
	}
	req := request(t, model.GPT22B(), 8, 8)
	req.GlobalBatch = 0
	if _, err := Search(req); err == nil {
		t.Error("zero batch should error")
	}
	// A batch size indivisible by any DP×microbatch has no strategies.
	req = request(t, model.GPT22B(), 8, 7)
	req.Constraints.Microbatches = []int{16}
	if _, err := Search(req); err == nil {
		t.Error("infeasible batch should error")
	}
}
