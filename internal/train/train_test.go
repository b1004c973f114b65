package train

import (
	"reflect"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/tech"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

// specFor builds the Table 1 experiment for one validation row.
func specFor(t *testing.T, c valdata.TrainCase) Spec {
	t.Helper()
	cfg, err := model.ByName(c.Model)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := arch.DGXA100(c.GPUs)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Model:  cfg,
		System: sys,
		Map: parallel.Mapping{
			DP: c.DP, TP: c.TP, PP: c.PP, SP: c.SP,
			Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		GlobalBatch: c.Batch,
		Seq:         2048,
		Precision:   tech.BF16,
		Recompute:   c.Recompute,
	}
}

// TestTable1Validation is the package's headline check: our analytical
// predictions must sit within the same error band of the published
// Megatron-LM measurements that the paper demonstrates (relative errors
// "mostly well below 10%"). Gate: mean ≤ 8%, max ≤ 12%.
func TestTable1Validation(t *testing.T) {
	var errs []float64
	for _, c := range valdata.Table1() {
		res, err := Predict(specFor(t, c))
		if err != nil {
			t.Fatalf("%s/%d GPUs: %v", c.Model, c.GPUs, err)
		}
		e := units.RelErr(res.Total, c.RefSeconds)
		errs = append(errs, e)
		t.Logf("%-10s %5d GPUs %-9v ref=%6.1fs pred=%6.1fs err=%4.1f%% (paper pred %5.1fs)",
			c.Model, c.GPUs, c.Recompute, c.RefSeconds, res.Total, 100*e, c.PaperPredSeconds)
		if e > 0.12 {
			t.Errorf("%s/%d GPUs: error %.1f%% exceeds 12%% gate", c.Model, c.GPUs, 100*e)
		}
	}
	if mean := units.Mean(errs); mean > 0.08 {
		t.Errorf("mean Table 1 error %.1f%% exceeds 8%% gate", 100*mean)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	for _, c := range valdata.Table1()[:4] {
		res, err := Predict(specFor(t, c))
		if err != nil {
			t.Fatal(err)
		}
		if !units.AlmostEqual(res.Total, res.Compute+res.Communication+res.Other, 1e-9) {
			t.Errorf("%s: breakdown does not sum to total", c.Model)
		}
		if !units.AlmostEqual(res.Compute, res.GEMMTime+res.EWTime+res.RecomputeTime, 1e-9) {
			t.Errorf("%s: compute parts do not sum", c.Model)
		}
		if !units.AlmostEqual(res.Communication, res.TPComm+res.PPComm+res.DPComm, 1e-9) {
			t.Errorf("%s: comm parts do not sum", c.Model)
		}
		if !units.AlmostEqual(res.Other, res.Bubble+res.OptimizerStep, 1e-9) {
			t.Errorf("%s: other parts do not sum", c.Model)
		}
	}
}

func TestRecomputeCostOrdering(t *testing.T) {
	// §3.3: full recomputation "doubles the forward pass time"; selective
	// "causes very little computational overhead".
	spec := specFor(t, valdata.Table1()[1]) // GPT-175B
	spec.Recompute = memfoot.NoRecompute
	none, _ := Predict(spec)
	spec.Recompute = memfoot.Selective
	sel, _ := Predict(spec)
	spec.Recompute = memfoot.Full
	full, _ := Predict(spec)

	if !(none.Total < sel.Total && sel.Total < full.Total) {
		t.Errorf("time ordering violated: none=%g sel=%g full=%g",
			none.Total, sel.Total, full.Total)
	}
	// Selective overhead small (< 8% over none), full large (> 20%).
	if sel.Total/none.Total > 1.08 {
		t.Errorf("selective overhead %.1f%% too large", 100*(sel.Total/none.Total-1))
	}
	if full.Total/none.Total < 1.20 {
		t.Errorf("full recompute overhead %.1f%% too small", 100*(full.Total/none.Total-1))
	}
}

func TestMFUInPlausibleRange(t *testing.T) {
	// Megatron-LM reports ~40-57% model FLOPs utilization on A100
	// clusters; our calibrated predictions must land in that regime.
	for _, c := range valdata.Table1() {
		res, err := Predict(specFor(t, c))
		if err != nil {
			t.Fatal(err)
		}
		if res.MFU < 0.25 || res.MFU > 0.65 {
			t.Errorf("%s/%d GPUs: MFU %.2f outside [0.25, 0.65]", c.Model, c.GPUs, res.MFU)
		}
	}
}

func TestInterleavingShrinksBubble(t *testing.T) {
	spec := specFor(t, valdata.Table1()[3]) // GPT-1008B, PP=64
	spec.Map.Schedule = parallel.OneFOneB
	base, err := Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Map.Schedule = parallel.Interleaved1F1B
	spec.Map.VirtualStages = 2
	il, err := Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	if il.Bubble >= base.Bubble {
		t.Errorf("interleaving should shrink the bubble: %g vs %g", il.Bubble, base.Bubble)
	}
	if il.PPComm <= base.PPComm {
		t.Error("interleaving should increase pipeline communication")
	}
}

func TestSequenceParallelismSavesTime(t *testing.T) {
	// SP shards the norm/dropout element-wise work at equal communication
	// volume, so it must not slow the iteration (§1.3).
	spec := specFor(t, valdata.Table1()[1])
	spec.Recompute = memfoot.Selective
	spec.Map.SP = false
	noSP, _ := Predict(spec)
	spec.Map.SP = true
	withSP, _ := Predict(spec)
	if withSP.Total > noSP.Total {
		t.Errorf("SP slowed training: %g vs %g", withSP.Total, noSP.Total)
	}
	if withSP.EWTime >= noSP.EWTime {
		t.Error("SP should reduce element-wise time")
	}
}

func TestDPOverlapHidesGradientAllReduce(t *testing.T) {
	spec := specFor(t, valdata.Table1()[8]) // GPT-310B, DP=15
	spec.DPOverlap = 0
	exposed, _ := Predict(spec)
	spec.DPOverlap = 1
	hidden, _ := Predict(spec)
	if exposed.DPComm <= 0 {
		t.Fatal("DP=15 must have gradient all-reduce time")
	}
	if hidden.DPComm != 0 {
		t.Errorf("full overlap should hide DP comm, got %g", hidden.DPComm)
	}
	if hidden.Total >= exposed.Total {
		t.Error("overlap should reduce total time")
	}
}

func TestFasterSystemIsFaster(t *testing.T) {
	// An H100-NDR cluster must beat the A100-HDR cluster on the same
	// workload (Fig. 5 direction), and FP8 must beat BF16 on H100.
	c := valdata.Table1()[1]
	a100Spec := specFor(t, c)
	a100, _ := Predict(a100Spec)

	h100Sys, err := arch.SystemOf(arch.H100(), c.GPUs, 8, tech.NVLink4, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	h100Spec := a100Spec
	h100Spec.System = h100Sys
	h100, err := Predict(h100Spec)
	if err != nil {
		t.Fatal(err)
	}
	if h100.Total >= a100.Total {
		t.Errorf("H100 (%g) should beat A100 (%g)", h100.Total, a100.Total)
	}

	fp8 := h100Spec
	fp8.Precision = tech.FP8
	f, err := Predict(fp8)
	if err != nil {
		t.Fatal(err)
	}
	if f.Total >= h100.Total {
		t.Errorf("FP8 (%g) should beat BF16 (%g) on H100", f.Total, h100.Total)
	}
}

func TestGEMMBoundSplit(t *testing.T) {
	// Training-shape GEMMs on an A100 are compute-bound (§1.2): the
	// compute-bound share must dominate.
	spec := specFor(t, valdata.Table1()[1])
	cb, mb, err := LayerGEMMBoundSplit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cb <= 0 {
		t.Fatal("no compute-bound GEMM time")
	}
	if mb > cb {
		t.Errorf("A100 training layer should be compute-dominated: cb=%g mb=%g", cb, mb)
	}
	// Result-level split agrees in direction.
	res, _ := Predict(spec)
	if res.GEMMComputeBound < res.GEMMMemoryBound {
		t.Error("iteration GEMM split should also be compute-dominated")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := specFor(t, valdata.Table1()[0])

	bad := good
	bad.System = nil
	if _, err := Predict(bad); err == nil {
		t.Error("nil system should error")
	}

	bad = good
	bad.Seq = 0
	if _, err := Predict(bad); err == nil {
		t.Error("zero seq should error")
	}

	bad = good
	bad.Map.DP = 7 // wrong device count
	if _, err := Predict(bad); err == nil {
		t.Error("mapping/system mismatch should error")
	}

	bad = good
	bad.DPOverlap = 1.5
	if _, err := Predict(bad); err == nil {
		t.Error("out-of-range overlap should error")
	}
}

func TestMemoryAttachedToResult(t *testing.T) {
	res, err := Predict(specFor(t, valdata.Table1()[1]))
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryPerDevice.Total() <= 0 {
		t.Error("memory footprint missing from result")
	}
}

func TestMoreMicrobatchesAmortizeBubble(t *testing.T) {
	spec := specFor(t, valdata.Table1()[1]) // PP=8, batch 64
	small, _ := Predict(spec)
	spec.GlobalBatch = 128
	big, _ := Predict(spec)
	// Per-sequence time should improve with more microbatches.
	if big.Total/128 >= small.Total/64 {
		t.Error("larger batch should amortize the pipeline bubble")
	}
}

// TestPredictorReuseMatchesFresh: one Predictor reused across every
// Table 1 row under every recompute regime, whose op lists differ in
// length, predicts exactly what a fresh Predict does, and once its buffer
// has grown and its table holds the shape it allocates less than a fresh
// prediction.
func TestPredictorReuseMatchesFresh(t *testing.T) {
	var pr Predictor
	var specs []Spec
	for _, c := range valdata.Table1() {
		for _, rec := range []memfoot.Recompute{memfoot.Selective, memfoot.NoRecompute, memfoot.Full} {
			s := specFor(t, c)
			s.Recompute = rec
			specs = append(specs, s)
		}
	}
	for _, s := range specs {
		want, err := Predict(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pr.Predict(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s %v: reused predictor %+v, fresh %+v", s.Model.Name, s.Recompute, got, want)
		}
	}
	s := specs[0]
	if _, err := pr.Predict(s); err != nil {
		t.Fatal(err)
	}
	fresh := testing.AllocsPerRun(10, func() { _, _ = Predict(s) })
	reused := testing.AllocsPerRun(10, func() { _, _ = pr.Predict(s) })
	if reused >= fresh {
		t.Errorf("reused predictor allocates %v times a call, fresh %v", reused, fresh)
	}
}

// TestPredictorTableKey: the layer table's key holds every input the
// pricing reads. A base spec and its perturbations, one input each (every
// model.Config field, walked by reflection; every field that feeds
// Spec.exec; the recompute regime, whose specs share the base's entry; a
// system with another device and one with another intra-node link), are
// predicted in turn on one Predictor, the base between each pair so that
// its entry is in the table when a perturbation is looked up. There are
// more shapes than the table holds, and three rounds of them, so entries
// are evicted and priced again; each prediction must equal a fresh one
// bit for bit.
func TestPredictorTableKey(t *testing.T) {
	sys := func(d arch.Device, intra tech.NetworkTech) *arch.System {
		s, err := arch.SystemOf(d, 16, 8, intra, tech.IBNDR)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := Spec{
		Model:  model.GPT22B(),
		System: sys(arch.H100(), tech.NVLink4),
		Map: parallel.Mapping{
			DP: 1, TP: 8, PP: 2, Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		GlobalBatch: 16,
		Seq:         2048,
		Precision:   tech.FP8,
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	var names []string
	var specs []Spec
	add := func(name string, edit func(*Spec)) {
		s := base
		edit(&s)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, specs = append(names, name), append(specs, s)
	}

	// Every model field: an int doubled, halved or incremented, whichever
	// first keeps the spec valid; a bool flipped; a string extended.
	cfg := reflect.TypeOf(base.Model)
	for i := 0; i < cfg.NumField(); i++ {
		f := cfg.Field(i)
		var edits []func(v reflect.Value)
		switch f.Type.Kind() {
		case reflect.Int:
			for _, next := range []func(int64) int64{
				func(x int64) int64 { return 2 * x },
				func(x int64) int64 { return x / 2 },
				func(x int64) int64 { return x + 1 },
			} {
				edits = append(edits, func(v reflect.Value) { v.SetInt(next(v.Int())) })
			}
		case reflect.Bool:
			edits = append(edits, func(v reflect.Value) { v.SetBool(!v.Bool()) })
		case reflect.String:
			edits = append(edits, func(v reflect.Value) { v.SetString(v.String() + "'") })
		default:
			t.Fatalf("model.Config.%s: no perturbation for kind %v", f.Name, f.Type.Kind())
		}
		edit := func(s *Spec) {
			for _, e := range edits {
				*s = base
				e(reflect.ValueOf(&s.Model).Elem().Field(i))
				if s.Model != base.Model && s.Validate() == nil {
					return
				}
			}
		}
		add("Model."+f.Name, edit)
	}

	// Every field that feeds Spec.exec, the regime and the system.
	add("Map.Microbatch", func(s *Spec) { s.Map.Microbatch = 2 })
	add("Seq", func(s *Spec) { s.Seq = 1024 })
	add("Map.TP", func(s *Spec) { s.Map.TP, s.Map.DP = 4, 2 })
	add("Map.SP", func(s *Spec) { s.Map.SP = true })
	add("Flash", func(s *Spec) { s.Flash = true })
	add("Precision", func(s *Spec) { s.Precision = tech.BF16 })
	add("Store", func(s *Spec) { s.Store = tech.FP8 })
	add("Recompute=selective", func(s *Spec) { s.Recompute = memfoot.Selective })
	add("Recompute=full", func(s *Spec) { s.Recompute = memfoot.Full })
	add("System.Device", func(s *Spec) { s.System = sys(arch.A100(), tech.NVLink4) })
	add("System.Intra", func(s *Spec) { s.System = sys(arch.H100(), tech.NVLink3) })
	if shapes := len(specs) - 1; shapes <= layerTableLen { // the base and two regimes share one
		t.Fatalf("%d shapes do not overflow a table of %d", shapes, layerTableLen)
	}

	check := func(pr *Predictor, name string, s Spec) {
		t.Helper()
		want, err := Predict(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pr.Predict(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: reused predictor %+v, fresh %+v", name, got, want)
		}
	}
	var pr Predictor
	for round := 0; round < 3; round++ {
		for i, s := range specs {
			check(&pr, "base", base)
			check(&pr, names[i], s)
		}
	}
}
