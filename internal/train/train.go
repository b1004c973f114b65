// Package train predicts the per-batch iteration time of distributed LLM
// training (paper §3, validated in §4.2): per-device kernel time from the
// hierarchical roofline, Megatron tensor-parallel collectives, pipeline
// schedules with their bubbles and point-to-point transfers, the
// data-parallel gradient all-reduce, activation recomputation overheads,
// and the optimizer step — decomposed into the compute / communication /
// other categories of the paper's Fig. 5.
package train

import (
	"fmt"
	"math"

	"optimus/internal/arch"
	"optimus/internal/comm"
	"optimus/internal/kernels"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

// Spec fixes one training experiment.
type Spec struct {
	Model  model.Config
	System *arch.System
	Map    parallel.Mapping
	// GlobalBatch is the batch size in sequences per iteration.
	GlobalBatch int
	// Seq is the training sequence length.
	Seq int
	// Precision is the GEMM compute precision (BF16 on A100, FP8 on
	// H100/H200, FP4 on B200 in the paper's Fig. 5 study).
	Precision tech.Precision
	// Store is the activation/weight storage precision; zero means BF16.
	Store tech.Precision
	// Recompute selects the activation recomputation regime.
	Recompute memfoot.Recompute
	// Flash enables IO-aware fused attention (§1.1); pair with Selective
	// recomputation for consistent memory accounting.
	Flash bool
	// DPOverlap is the fraction of the data-parallel gradient all-reduce
	// hidden under the backward pass (0 = fully exposed).
	DPOverlap float64
}

func (s Spec) store() tech.Precision {
	if s.Store != tech.FP32 {
		return s.Store
	}
	return tech.BF16
}

// Validate checks the experiment's consistency.
func (s Spec) Validate() error {
	if s.System == nil {
		return fmt.Errorf("train: no system")
	}
	if err := s.System.Validate(); err != nil {
		return err
	}
	if err := s.Model.Validate(); err != nil {
		return err
	}
	if err := s.Map.Validate(s.Model.Layers, s.GlobalBatch); err != nil {
		return err
	}
	if s.Map.Devices() != s.System.NumDevices() {
		return fmt.Errorf("train: mapping needs %d devices, system has %d",
			s.Map.Devices(), s.System.NumDevices())
	}
	if s.Seq <= 0 {
		return fmt.Errorf("train: non-positive sequence length %d", s.Seq)
	}
	if s.DPOverlap < 0 || s.DPOverlap > 1 {
		return fmt.Errorf("train: DP overlap %g outside [0,1]", s.DPOverlap)
	}
	return nil
}

// Result is the per-iteration prediction with the Fig. 5 decomposition and
// finer detail.
type Result struct {
	// Total is the predicted time per batch in seconds.
	Total float64

	// Compute is on-device kernel time (GEMM + element-wise + recompute).
	Compute float64
	// Communication is TP collectives + PP transfers + DP all-reduce.
	Communication float64
	// Other is pipeline bubble + optimizer step (the paper's Fig. 5
	// "Other" category).
	Other float64

	// Fine-grained components (all in seconds, per iteration).
	GEMMTime      float64
	EWTime        float64
	RecomputeTime float64
	TPComm        float64
	PPComm        float64
	DPComm        float64
	Bubble        float64
	OptimizerStep float64

	// GEMMComputeBound and GEMMMemoryBound split per-iteration GEMM time
	// by roofline bound type (Fig. 7).
	GEMMComputeBound float64
	GEMMMemoryBound  float64

	// ModelFLOPs is the useful (no-recompute) FLOP count per iteration
	// across the whole system; MFU = ModelFLOPs / (Total × system peak).
	ModelFLOPs float64
	MFU        float64

	// DRAMBytes is the off-chip traffic per device per iteration and
	// WireBytes the per-device network traffic — inputs to the energy
	// model (internal/energy).
	DRAMBytes float64
	WireBytes float64

	// MemoryPerDevice is the worst-stage footprint.
	MemoryPerDevice memfoot.Breakdown
}

// bwdGEMMFactor: the backward pass runs two GEMMs (activation and weight
// gradients) per forward GEMM.
const bwdGEMMFactor = 2.0

// bwdEWFactor: backward element-wise traffic relative to forward (gradient
// streams are comparable; norm backward adds reduction passes).
const bwdEWFactor = 1.5

// layerCost aggregates the per-microbatch forward cost of an op list.
type layerCost struct {
	gemm     float64
	gemmComp float64 // compute-bound share of gemm
	gemmMem  float64 // memory-bound share
	ew       float64
	comm     float64

	// traffic accounting for the energy model
	gemmBytes float64 // off-chip bytes moved by GEMMs
	ewBytes   float64 // off-chip bytes moved by element-wise kernels
	wireBytes float64 // per-device network bytes (ring-equivalent)
}

// costOps prices an op list and splits the sums by kernel class: GEMM and
// fused tensor-core kernels, element-wise kernels, and TP collectives.
func costOps(p *kernels.Pricer, ops []kernels.Op) layerCost {
	var c layerCost
	for i := range ops {
		op := &ops[i]
		pr := p.Price(op)
		switch {
		case pr.Collective:
			c.comm += pr.Time
			c.wireBytes += pr.Bytes
		case op.Kind == kernels.KindElementwise:
			c.ew += pr.Time
			c.ewBytes += pr.Bytes
		default:
			c.gemm += pr.Time
			c.gemmBytes += pr.Bytes
			if pr.Bound == roofline.BoundCompute {
				c.gemmComp += pr.Time
			} else {
				c.gemmMem += pr.Time
			}
		}
	}
	return c
}

// appendSelective appends to dst the attention-core ops that selective
// recomputation replays (scores, softmax, attention dropout — Eq. 2's
// discarded tensors). ops may share dst's buffer.
func appendSelective(dst, ops []kernels.Op) []kernels.Op {
	for i := range ops {
		switch ops[i].Name {
		case "scores", "softmax", "attn-dropout":
			dst = append(dst, ops[i])
		}
	}
	return dst
}

// pricedLayer is one layer shape priced: the forward costs of a
// transformer layer, of the attention-core ops selective recomputation
// replays, of the embedding and of the output head, and the forward GEMM
// FLOPs of the layer and the head. They depend only on the fields of its
// key; the recompute regime only chooses which of them a prediction
// replays, so shapes that differ in it alone share an entry.
type pricedLayer struct {
	key                        layerKey
	fwd, selective, emb, logit layerCost
	layerFLOPs, logitFLOPs     float64
}

// layerKey is everything a layer shape's pricing reads: the system's
// device and TP link (through the system), the model and the execution
// context of one forward microbatch. The mapping's PP, DP and schedule,
// the global batch and the recompute regime do not enter it.
type layerKey struct {
	system *arch.System
	model  model.Config
	exec   kernels.Exec
}

// layerTableLen bounds a Predictor's table of priced layers. The table
// is inline, so reusing a Predictor allocates nothing for it; a plan
// sweep meets its shapes in cell order, and the bench's training grid
// has 11.
const layerTableLen = 16

// Predictor predicts training iterations into one reusable op buffer
// and keeps a table of the layer shapes it priced last, so a survivor
// whose shape it has seen skips building and pricing the op lists and
// pays only for the mapping arithmetic. The table is keyed on the
// system's pointer, not its contents: a caller must not change a system
// it has predicted on while it reuses the Predictor. A sweep evaluator
// owns one for a single pass 2 of one Run, whose spec stays unchanged
// while it runs. NOT safe for concurrent use; the zero value is ready.
type Predictor struct {
	ops    []kernels.Op
	layers [layerTableLen]pricedLayer
	// next is the entry of layers the next miss overwrites, in turn.
	next int
}

// Predict estimates the iteration time of one training batch on a fresh
// Predictor.
func Predict(s Spec) (Result, error) {
	var p Predictor
	return p.Predict(s)
}

// layer returns the priced layer shape of s, from the table or priced
// into the entry the table gives up next.
func (pr *Predictor) layer(s *Spec) *pricedLayer {
	exec := s.exec()
	key := layerKey{system: s.System, model: s.Model, exec: exec}
	// An empty entry's nil system matches no spec that passed Validate.
	for i := range pr.layers {
		if pr.layers[i].key == key {
			return &pr.layers[i]
		}
	}
	l := &pr.layers[pr.next]
	pr.next = (pr.next + 1) % layerTableLen
	l.key = key
	pr.price(l, s, exec)
	return l
}

// price fills l with the costs of the layer shape of s, whose forward
// microbatch runs in exec.
func (pr *Predictor) price(l *pricedLayer, s *Spec, exec kernels.Exec) {
	pricer := s.pricer()

	// The layer's ops, then the ones selective recomputation replays, the
	// embedding's and the output head's, in one buffer.
	ops := kernels.AppendLayerForward(pr.ops[:0], s.Model, exec)
	nLayer := len(ops)
	ops = appendSelective(ops, ops)
	nRecomp := len(ops)
	ops = kernels.AppendEmbeddingForward(ops, s.Model, exec)
	nEmb := len(ops)
	ops = kernels.AppendLogitsForward(ops, s.Model, exec)
	pr.ops = ops
	layerOps, logitOps := ops[:nLayer], ops[nEmb:]
	l.fwd = costOps(pricer, layerOps)
	l.selective = costOps(pricer, ops[nLayer:nRecomp])
	l.emb = costOps(pricer, ops[nRecomp:nEmb])
	l.logit = costOps(pricer, logitOps)
	l.layerFLOPs = kernels.Summarize(layerOps).GEMMFLOPs
	l.logitFLOPs = kernels.Summarize(logitOps).GEMMFLOPs
}

// Predict estimates the iteration time of one training batch.
func (pr *Predictor) Predict(s Spec) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	sys := s.System
	m := s.Map
	nMicro := m.Microbatches(s.GlobalBatch)
	l := pr.layer(&s)
	fwd := &l.fwd

	// Recompute cost per layer per microbatch (device + comm components).
	var recompute layerCost
	switch s.Recompute {
	case memfoot.Full:
		recompute = l.fwd
	case memfoot.Selective:
		recompute = l.selective
	}

	layers := m.LayersPerDevice(s.Model.Layers)
	lf := float64(layers)

	// Per-microbatch, per-stage device time and TP communication.
	fwdDevice := lf * (fwd.gemm + fwd.ew)
	bwdDevice := lf * (bwdGEMMFactor*fwd.gemm + bwdEWFactor*fwd.ew)
	recompDevice := lf * (recompute.gemm + recompute.ew)
	fwdComm := lf * fwd.comm
	bwdComm := lf * fwd.comm // mirrored collectives in backward
	recompComm := lf * recompute.comm

	// Embedding and output head on the boundary stages; the pipeline's
	// critical path takes the slower of the two.
	embCost, logitCost := &l.emb, &l.logit
	embDevice := embCost.gemm + embCost.ew
	logitDevice := logitCost.gemm + logitCost.ew
	boundary := math.Max(embDevice*(1+bwdGEMMFactor), logitDevice*(1+bwdGEMMFactor))

	// Slot time: one microbatch's forward+backward(+recompute) on the
	// slowest stage, including its TP collectives.
	slotDevice := fwdDevice + bwdDevice + recompDevice + boundary
	slotComm := fwdComm + bwdComm + recompComm
	slot := slotDevice + slotComm

	// Pipeline: (m + bubble) slots plus the exposed fill/drain transfers.
	p2pBytes := float64(m.Microbatch*s.Seq*s.Model.Hidden) * s.store().Bytes()
	ppLink := sys.Inter
	if m.TP*m.PP <= sys.DevicesPerNode {
		ppLink = sys.Intra
	}
	var ppComm float64
	if m.PP > 1 {
		perTransfer := comm.P2PTime(p2pBytes, ppLink)
		// Fill and drain cross every stage boundary once each way; the
		// steady-state transfers overlap with compute.
		ppComm = 2 * float64(m.P2PTransfersPerMicrobatch()) * perTransfer
	}

	// Data-parallel gradient all-reduce over the DP group.
	params := memfoot.ParamsPerDevice(&s.Model, &m)
	var dpComm float64
	if m.DP > 1 {
		gradBytes := params * s.store().Bytes()
		dpLink := sys.Inter
		if m.Devices() <= sys.DevicesPerNode {
			dpLink = sys.Intra
		}
		dpComm = comm.AllReduceTime(comm.Ring, gradBytes, m.DP, dpLink) * (1 - s.DPOverlap)
	}

	// Optimizer step: a streaming pass over parameters, gradients and
	// optimizer state (read grad+master+m+v, write master+m+v+param ≈ 28
	// bytes per parameter at mixed precision).
	const optimizerBytesPerParam = 28
	dram := sys.Device.DRAMLevel()
	optStep := params * optimizerBytesPerParam / dram.EffBW()

	bubble := m.BubbleSlots() * slot

	// Attribute the busy slots (one per microbatch) to compute and
	// communication; the bubble slots go to Other.
	busy := float64(nMicro)

	res := Result{
		GEMMTime:      busy * (lf*(1+bwdGEMMFactor)*fwd.gemm + boundary),
		EWTime:        busy * lf * (1 + bwdEWFactor) * fwd.ew,
		RecomputeTime: busy * recompDevice,
		TPComm:        busy * slotComm,
		PPComm:        ppComm,
		DPComm:        dpComm,
		Bubble:        bubble,
		OptimizerStep: optStep,
	}

	res.Compute = res.GEMMTime + res.EWTime + res.RecomputeTime
	res.Communication = res.TPComm + res.PPComm + res.DPComm
	res.Other = res.Bubble + res.OptimizerStep
	res.Total = res.Compute + res.Communication + res.Other

	// Bound-type split of GEMM time (forward shapes; backward mirrors).
	frac := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	res.GEMMComputeBound = res.GEMMTime * frac(fwd.gemmComp, fwd.gemm)
	res.GEMMMemoryBound = res.GEMMTime * frac(fwd.gemmMem, fwd.gemm)

	// Useful model FLOPs: forward GEMMs × 3 (fwd + 2x bwd), no recompute.
	perDevice := (lf*l.layerFLOPs + l.logitFLOPs) * 3 * float64(nMicro)
	res.ModelFLOPs = perDevice * float64(m.Devices())
	_, peak := sys.Device.BestCompute(s.Precision)
	if peak > 0 && res.Total > 0 {
		res.MFU = res.ModelFLOPs / (res.Total * peak * float64(sys.NumDevices()))
	}

	// Traffic accounting for the energy model, mirroring the time factors.
	fwdDevBytes := fwd.gemmBytes*(1+bwdGEMMFactor) + fwd.ewBytes*(1+bwdEWFactor)
	recompBytes := recompute.gemmBytes + recompute.ewBytes
	boundaryBytes := (embCost.gemmBytes + embCost.ewBytes + logitCost.gemmBytes + logitCost.ewBytes) * (1 + bwdGEMMFactor)
	res.DRAMBytes = busy*(lf*(fwdDevBytes+recompBytes)+boundaryBytes) +
		params*optimizerBytesPerParam
	res.WireBytes = busy * lf * (2*fwd.wireBytes + recompute.wireBytes)
	if m.PP > 1 {
		res.WireBytes += 2 * float64(m.P2PTransfersPerMicrobatch()) * p2pBytes
	}
	if m.DP > 1 {
		d := float64(m.DP)
		res.WireBytes += 2 * params * s.store().Bytes() * (d - 1) / d
	}

	// Validate has checked the model and the mapping.
	mem, err := memfoot.TrainValidated(&memfoot.TrainSpec{
		Model: s.Model, Map: m, Seq: s.Seq, GlobalBatch: s.GlobalBatch,
		Recompute: s.Recompute,
	})
	if err != nil {
		return Result{}, err
	}
	res.MemoryPerDevice = mem

	return res, nil
}

// LayerGEMMBoundSplit returns the forward GEMM time of one transformer
// layer split by roofline bound type — the Fig. 7 decomposition.
func LayerGEMMBoundSplit(s Spec) (computeBound, memoryBound float64, err error) {
	if err := s.Validate(); err != nil {
		return 0, 0, err
	}
	c := costOps(s.pricer(), kernels.LayerForward(s.Model, s.exec()))
	return c.gemmComp, c.gemmMem, nil
}

// exec is the per-device execution context of one forward microbatch.
func (s Spec) exec() kernels.Exec {
	return kernels.Exec{
		Batch:     s.Map.Microbatch,
		Seq:       s.Seq,
		Context:   s.Seq,
		TP:        s.Map.TP,
		SP:        s.Map.SP,
		Flash:     s.Flash,
		Precision: s.Precision,
		Store:     s.store(),
		Phase:     kernels.TrainForward,
	}
}

// pricer prices ops on the system's device and TP group; training
// collectives are data-intensive and use the ring algorithm.
func (s Spec) pricer() *kernels.Pricer {
	return &kernels.Pricer{
		Engine:    roofline.New(s.System.Device),
		Link:      s.System.LinkBetween(s.Map.TP),
		TP:        s.Map.TP,
		Algorithm: comm.Ring,
	}
}
