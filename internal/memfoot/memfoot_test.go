package memfoot

import (
	"math"
	"testing"
	"testing/quick"

	"optimus/internal/model"
	"optimus/internal/parallel"
)

// gpt175Spec is the Table 1 / Fig. 4 configuration: 64 A100s, 1-8-8,
// microbatch 1, global batch 64, sequence 2048.
func gpt175Spec(r Recompute) TrainSpec {
	return TrainSpec{
		Model: model.GPT175B(),
		Map: parallel.Mapping{
			DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		Seq:         2048,
		GlobalBatch: 64,
		Recompute:   r,
	}
}

func TestLayerActivationKorthikantiFormula(t *testing.T) {
	// At TP=1, no SP: sbh(34 + 5as/h) bytes.
	cfg := model.GPT175B()
	m := parallel.Mapping{DP: 1, TP: 1, PP: 1, Microbatch: 1}
	got := layerActivationBytes(&cfg, &m, 2048)
	s, b, h, a := 2048.0, 1.0, 12288.0, 96.0
	want := s * b * h * (34 + 5*a*s/h)
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("activation bytes = %g, want %g", got, want)
	}
}

func TestTPAndSPDivideActivations(t *testing.T) {
	cfg := model.GPT175B()
	tp8 := parallel.Mapping{DP: 1, TP: 8, PP: 1, Microbatch: 1}
	got := layerActivationBytes(&cfg, &tp8, 2048)
	s, b, h, a := 2048.0, 1.0, 12288.0, 96.0
	want := s * b * h * (10 + 24/8.0 + 5*a*s/(h*8))
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("TP=8 activation = %g, want %g", got, want)
	}
	sp := tp8
	sp.SP = true
	gotSP := layerActivationBytes(&cfg, &sp, 2048)
	wantSP := s * b * h * (34/8.0 + 5*a*s/(h*8))
	if math.Abs(gotSP-wantSP)/wantSP > 1e-12 {
		t.Errorf("SP activation = %g, want %g", gotSP, wantSP)
	}
	if gotSP >= got {
		t.Error("SP must reduce stored activations")
	}
}

func TestRecomputeOrdering(t *testing.T) {
	// Fig. 4: none > selective > full, for every model.
	specs := []func(Recompute) TrainSpec{gpt175Spec}
	for _, mk := range specs {
		none, err := Train(mk(NoRecompute))
		if err != nil {
			t.Fatal(err)
		}
		sel, _ := Train(mk(Selective))
		full, _ := Train(mk(Full))
		if !(none.Activations > sel.Activations && sel.Activations > full.Activations) {
			t.Errorf("activation ordering violated: none=%g sel=%g full=%g",
				none.Activations, sel.Activations, full.Activations)
		}
		// Model state is independent of the recompute regime.
		if none.ModelState() != sel.ModelState() || sel.ModelState() != full.ModelState() {
			t.Error("model state must not depend on recomputation")
		}
	}
}

func TestGPT175BFitsOnlyWithRecompute(t *testing.T) {
	// §5.1: "with no recomputation, an LLM can not generally fit in the
	// device memory"; selective recomputation brings GPT-175B under the
	// A100's 80 GB.
	const a100 = 80e9
	none, _ := Train(gpt175Spec(NoRecompute))
	sel, _ := Train(gpt175Spec(Selective))
	full, _ := Train(gpt175Spec(Full))
	if none.Total() < a100 {
		t.Errorf("no-recompute footprint %g should exceed 80 GB", none.Total())
	}
	if FitsDevice(none, a100) {
		t.Error("no-recompute should not fit an A100")
	}
	if !FitsDevice(sel, a100) {
		t.Errorf("selective footprint %g should fit an A100", sel.Total())
	}
	if !FitsDevice(full, a100) {
		t.Errorf("full footprint %g should fit an A100", full.Total())
	}
}

func TestFig4Magnitudes(t *testing.T) {
	// Anchor the 175B bars: parameters ≈ 5.6 GB, gradients+optimizer ≈
	// 39 GB, no-recompute activations ≈ 56 GB (±15%).
	none, _ := Train(gpt175Spec(NoRecompute))
	within := func(name string, got, want float64) {
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%s = %.1f GB, want ≈ %.1f GB", name, got/1e9, want/1e9)
		}
	}
	within("parameters", none.Parameters, 5.6e9)
	within("grad+optimizer", none.Gradients+none.Optimizer, 39e9)
	within("activations", none.Activations, 56e9)
}

func TestFullRecomputeEq1(t *testing.T) {
	// With Nckp = resident layers, Eq. (1) degenerates to
	// L·Ainp + (Atot − Ainp) per stage.
	spec := gpt175Spec(Full)
	got := activationsPerDevice(&spec)
	layers := 12.0 // 96 layers / PP 8
	aTot := layerActivationBytes(&spec.Model, &spec.Map, spec.Seq)
	aInp := 2.0 * 2048 * 1 * 12288
	inFlight := 8.0 // 1F1B, m=64 ≥ p=8
	want := (layers*aInp + (aTot - aInp)) * inFlight
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Eq.1 activations = %g, want %g", got, want)
	}
	// Fewer checkpoints trade memory: Nckp = 4 stores fewer inputs but a
	// larger recompute segment.
	spec.Checkpoints = 4
	got4 := activationsPerDevice(&spec)
	want4 := (4*aInp + 12.0/4*(aTot-aInp)) * inFlight
	if math.Abs(got4-want4)/want4 > 1e-12 {
		t.Errorf("Eq.1 with Nckp=4 = %g, want %g", got4, want4)
	}
}

func TestSelectiveEq2(t *testing.T) {
	spec := gpt175Spec(Selective)
	got := activationsPerDevice(&spec)
	aTot := layerActivationBytes(&spec.Model, &spec.Map, spec.Seq)
	saved := 5.0 * 96 * 2048 * 2048 * 1 / 8
	want := 12 * (aTot - saved) * 8
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Eq.2 activations = %g, want %g", got, want)
	}
}

func TestGPipeStoresAllMicrobatches(t *testing.T) {
	spec := gpt175Spec(NoRecompute)
	spec.Map.Schedule = parallel.GPipe
	gpipe := activationsPerDevice(&spec)
	spec.Map.Schedule = parallel.OneFOneB
	f1b1 := activationsPerDevice(&spec)
	if ratio := gpipe / f1b1; math.Abs(ratio-8) > 1e-9 { // 64 vs 8 in flight
		t.Errorf("GPipe/1F1B activation ratio = %g, want 8", ratio)
	}
}

func TestTrainValidates(t *testing.T) {
	spec := gpt175Spec(NoRecompute)
	spec.Map.PP = 7 // 96 layers not divisible
	if _, err := Train(spec); err == nil {
		t.Error("invalid mapping should error")
	}
	spec = gpt175Spec(NoRecompute)
	spec.Seq = 0
	if _, err := Train(spec); err == nil {
		t.Error("zero sequence should error")
	}
}

func TestInferenceFootprint(t *testing.T) {
	// Fig. 8 inset: Llama2-13B weights ≈ 26 GB at fp16; KV cache at
	// B=16, context 400 ≈ 5 GB (2·16·400·2·40·5120).
	cfg := model.Llama2_13B()
	got := Inference(cfg, 1, 16, 400, 2)
	if math.Abs(got.Weights-26e9)/26e9 > 0.05 {
		t.Errorf("weights = %g, want ≈ 26 GB", got.Weights)
	}
	wantKV := 2.0 * 16 * 400 * 2 * 40 * 5120
	if got.KVCache != wantKV {
		t.Errorf("kv cache = %g, want %g", got.KVCache, wantKV)
	}
	// TP shards both.
	tp8 := Inference(cfg, 8, 16, 400, 2)
	if math.Abs(tp8.Total()*8-got.Total()) > 1 {
		t.Error("TP=8 should shard the footprint 8 ways")
	}
}

func TestRecomputeString(t *testing.T) {
	if NoRecompute.String() != "none" || Selective.String() != "selective" || Full.String() != "full" {
		t.Error("recompute names wrong")
	}
}

func TestDefaultMixedPrecision(t *testing.T) {
	b := defaultMixedPrecision()
	if b.Param != 2 || b.Grad != 2 || b.Optim != 12 {
		t.Errorf("default mixed precision = %+v", b)
	}
	// Zero-value spec resolves to the default.
	spec := gpt175Spec(NoRecompute)
	bd, _ := Train(spec)
	if bd.Gradients != bd.Parameters {
		t.Error("2-byte grads should equal 2-byte params")
	}
	if bd.Optimizer != 6*bd.Parameters {
		t.Error("12-byte optimizer should be 6x the 2-byte params")
	}
}

// Property: activations scale linearly with microbatch size.
func TestActivationLinearInMicrobatchProperty(t *testing.T) {
	cfg := model.GPT22B()
	f := func(b uint8) bool {
		mb := int(b)%8 + 1
		m1 := parallel.Mapping{DP: 1, TP: 8, PP: 1, Microbatch: mb}
		m2 := parallel.Mapping{DP: 1, TP: 8, PP: 1, Microbatch: 2 * mb}
		return math.Abs(layerActivationBytes(&cfg, &m2, 2048)-2*layerActivationBytes(&cfg, &m1, 2048)) < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: more tensor parallelism never increases per-device activations.
func TestTPMonotoneProperty(t *testing.T) {
	cfg := model.GPT175B()
	f := func(tpSeed uint8) bool {
		tp := 1 << (int(tpSeed) % 4) // 1,2,4,8
		m1 := parallel.Mapping{DP: 1, TP: tp, PP: 1, Microbatch: 1}
		m2 := parallel.Mapping{DP: 1, TP: tp * 2, PP: 1, Microbatch: 1}
		return layerActivationBytes(&cfg, &m2, 2048) < layerActivationBytes(&cfg, &m1, 2048)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
