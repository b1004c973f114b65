// Package memfoot models the per-device memory footprint of LLM training
// and inference (paper §3.3, §3.5, §5.1): model parameters, gradients,
// optimizer states, activations under the three recomputation regimes
// (none, selective — Eq. 2, full — Eq. 1), and the inference KV-cache.
//
// Activation sizes follow the Korthikanti et al. accounting the paper
// adopts: a transformer layer at sequence length s, microbatch b, hidden h
// and heads a stores sbh·(34 + 5as/h) bytes at half precision, of which
// tensor parallelism divides the 24sbh of block-internal tensors and the
// attention quadratic term by t, and sequence parallelism additionally
// divides the 10sbh of norm/dropout tensors.
package memfoot

import (
	"fmt"

	"optimus/internal/model"
	"optimus/internal/parallel"
)

// Recompute selects the activation recomputation regime (§3.3).
type Recompute int

const (
	// NoRecompute stores every activation of every layer.
	NoRecompute Recompute = iota
	// Selective recomputes the attention softmax/dropout tensors (Eq. 2).
	Selective
	// Full checkpoints layer inputs and replays the forward pass (Eq. 1).
	Full
)

// String names the regime as in the paper's Fig. 4.
func (r Recompute) String() string {
	switch r {
	case NoRecompute:
		return "none"
	case Selective:
		return "selective"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Recompute(%d)", int(r))
	}
}

// MixedPrecisionBytes are the per-parameter storage costs of
// mixed-precision Adam (§5.1: "mixed-precision training with 2 bytes").
type MixedPrecisionBytes struct {
	// Param is the working-copy element size (fp16/bf16: 2).
	Param float64
	// Grad is the gradient element size (fp16: 2).
	Grad float64
	// Optim is the optimizer state per parameter: fp32 master copy,
	// momentum and variance (4+4+4 = 12).
	Optim float64
}

// defaultMixedPrecision is the standard 2/2/12-byte accounting.
func defaultMixedPrecision() MixedPrecisionBytes {
	return MixedPrecisionBytes{Param: 2, Grad: 2, Optim: 12}
}

// TrainSpec fixes everything the training footprint depends on.
type TrainSpec struct {
	Model model.Config
	Map   parallel.Mapping
	// Seq is the training sequence length.
	Seq int
	// GlobalBatch is the total batch size in sequences.
	GlobalBatch int
	// Recompute selects the activation regime.
	Recompute Recompute
	// Checkpoints is Nckp of Eq. (1); zero means one checkpoint per
	// resident layer (the Megatron default).
	Checkpoints int
	// Bytes is the precision accounting; zero value means
	// defaultMixedPrecision.
	Bytes MixedPrecisionBytes
}

func (s *TrainSpec) bytes() MixedPrecisionBytes {
	if s.Bytes == (MixedPrecisionBytes{}) {
		return defaultMixedPrecision()
	}
	return s.Bytes
}

// Breakdown is the per-device footprint, in bytes, of the worst (first)
// pipeline stage.
type Breakdown struct {
	Parameters  float64
	Gradients   float64
	Optimizer   float64
	Activations float64
}

// Total sums the breakdown.
func (b Breakdown) Total() float64 {
	return b.Parameters + b.Gradients + b.Optimizer + b.Activations
}

// ModelState returns the non-activation footprint (the Fig. 4 "optimizer
// state" bar is Gradients+Optimizer; "parameter" is Parameters).
func (b Breakdown) ModelState() float64 {
	return b.Parameters + b.Gradients + b.Optimizer
}

// ParamsPerDevice returns the parameter count held by one first-stage
// device: the stage's share of the layers plus the TP shard of the input
// embedding. It also sizes the data-parallel gradient all-reduce.
func ParamsPerDevice(cfg *model.Config, m *parallel.Mapping) float64 {
	layers := float64(m.LayersPerDevice(cfg.Layers))
	p := layers * cfg.LayerParams() / float64(m.TP)
	emb := float64(cfg.Vocab*cfg.Hidden) / float64(m.TP)
	if cfg.LearnedPositions {
		emb += float64(cfg.MaxSeq * cfg.Hidden) // replicated across TP
	}
	p += emb
	return p
}

// layerActivationBytes returns the stored activation bytes of one
// transformer layer for one microbatch under the given parallelism,
// excluding any recomputation discount.
func layerActivationBytes(cfg *model.Config, m *parallel.Mapping, seq int) float64 {
	s := float64(seq)
	b := float64(m.Microbatch)
	h := float64(cfg.Hidden)
	a := float64(cfg.Heads)
	t := float64(m.TP)

	attnQuad := 5 * a * s / (h * t) // softmax + dropout mask/output, ÷t
	blockLinear := 24 / t           // QKV/proj/MLP internals, ÷t
	normDrop := 10.0                // norms, dropouts, residual inputs
	if m.SP {
		normDrop /= t
	}
	return s * b * h * (normDrop + blockLinear + attnQuad)
}

// layerInputBytes is Ainp of Eq. (1): the 2-byte layer input s·b·h tensor.
// Sequence parallelism shards the stored checkpoint across the TP group.
func layerInputBytes(cfg *model.Config, m *parallel.Mapping, seq int) float64 {
	bytes := 2 * float64(seq) * float64(m.Microbatch) * float64(cfg.Hidden)
	if m.SP {
		bytes /= float64(m.TP)
	}
	return bytes
}

// selectiveSavedBytes is Asm+Ado_mask+Ado_out of Eq. (2): the attention
// quadratic tensors selective recomputation discards.
func selectiveSavedBytes(cfg *model.Config, m *parallel.Mapping, seq int) float64 {
	s := float64(seq)
	b := float64(m.Microbatch)
	a := float64(cfg.Heads)
	t := float64(m.TP)
	return 5 * a * s * s * b / t
}

// activationsPerDevice returns the stored activation bytes on the worst
// pipeline stage, applying the recomputation regime and the schedule's
// in-flight multiplier.
func activationsPerDevice(spec *TrainSpec) float64 {
	cfg, m := &spec.Model, &spec.Map
	layers := m.LayersPerDevice(cfg.Layers)
	nMicro := m.Microbatches(spec.GlobalBatch)
	inFlight := m.InFlight(nMicro)

	aTot := layerActivationBytes(cfg, m, spec.Seq)
	aInp := layerInputBytes(cfg, m, spec.Seq)

	var perStage float64
	switch spec.Recompute {
	case Full:
		// Eq. (1): Afull = Nckp·Ainp + (L/Nckp)(Atot − Ainp), with L the
		// resident layers and Nckp defaulting to one checkpoint per layer.
		nckp := spec.Checkpoints
		if nckp <= 0 || nckp > layers {
			nckp = layers
		}
		perStage = float64(nckp)*aInp + float64(layers)/float64(nckp)*(aTot-aInp)
	case Selective:
		// Eq. (2): Asel = L(Atot − (Asm + Ado_mask + Ado_out)).
		perStage = float64(layers) * (aTot - selectiveSavedBytes(cfg, m, spec.Seq))
	default:
		perStage = float64(layers) * aTot
	}
	return perStage * inFlight
}

// Train returns the per-device training footprint of the worst stage.
func Train(spec TrainSpec) (Breakdown, error) {
	if err := spec.Model.Validate(); err != nil {
		return Breakdown{}, err
	}
	if err := spec.Map.Validate(spec.Model.Layers, spec.GlobalBatch); err != nil {
		return Breakdown{}, err
	}
	return TrainValidated(&spec)
}

// TrainValidated is Train for a spec whose model has passed
// model.Config.Validate and whose mapping has passed
// parallel.Mapping.Validate against the model's layers and the global
// batch: the same footprint, without checking either again. Of Train's
// errors it reports only a non-positive sequence length. A plan sweep
// checks each model once per grid cell and walks only valid mappings;
// train.Predict has validated both before it sizes the footprint.
func TrainValidated(spec *TrainSpec) (Breakdown, error) {
	if spec.Seq <= 0 {
		return Breakdown{}, fmt.Errorf("memfoot: non-positive sequence length %d", spec.Seq)
	}
	p := ParamsPerDevice(&spec.Model, &spec.Map)
	by := spec.bytes()
	return Breakdown{
		Parameters:  p * by.Param,
		Gradients:   p * by.Grad,
		Optimizer:   p * by.Optim,
		Activations: activationsPerDevice(spec),
	}, nil
}

// FitsDevice reports whether the footprint fits a device capacity, leaving
// a 2 GB reserve for driver context, NCCL buffers and workspace — small
// enough that GPT-175B with selective recomputation still fits an 80 GB
// A100, as it does in practice (§5.1).
func FitsDevice(b Breakdown, capacity float64) bool {
	const reserve = 2e9
	return b.Total() <= capacity-reserve
}

// InferenceBreakdown is the per-device inference footprint.
type InferenceBreakdown struct {
	Weights float64
	KVCache float64
}

// Total sums the inference footprint.
func (b InferenceBreakdown) Total() float64 { return b.Weights + b.KVCache }

// Inference returns the per-device footprint of serving: TP-sharded
// weights plus the KV-cache at the given batch and maximum context
// (§3.5's cache-size formula divided across the TP group).
func Inference(cfg model.Config, tp, batch, context int, elemBytes float64) InferenceBreakdown {
	return InferenceBreakdown{
		Weights: cfg.Params() * elemBytes / float64(tp),
		KVCache: cfg.KVCacheBytes(batch, context, elemBytes) / float64(tp),
	}
}
