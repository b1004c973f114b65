// Package infer predicts end-to-end LLM inference latency (paper §4.3, §6):
// a compute-oriented prefill (summarization) pass over the prompt followed
// by autoregressive decode steps that stream the weights and the growing
// KV-cache from device memory, with tensor-parallel collectives resolved by
// the latency-optimal double-binary-tree model (Eq. 4) that the paper uses
// to scale inference to 8 GPUs.
package infer

import (
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/comm"
	"optimus/internal/kernels"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

// Spec fixes one inference experiment.
type Spec struct {
	Model  model.Config
	System *arch.System
	// TP is the tensor-parallel degree (= device count in all the paper's
	// inference studies; inference "involves only TP across a few devices
	// within a node", §1.3).
	TP int
	// Batch is the number of concurrent sequences.
	Batch int
	// PromptTokens is the summarization length (200 in Table 2).
	PromptTokens int
	// GenTokens is the number of generated tokens (200 in Table 2).
	GenTokens int
	// Precision is the compute/storage precision (FP16 in the paper).
	Precision tech.Precision
	// Algorithm selects the all-reduce model; the zero value (tree) is the
	// paper's choice for inference.
	Algorithm comm.Algorithm
	// Flash enables IO-aware fused attention for both phases (§1.1).
	Flash bool
}

// Validate checks the experiment.
func (s Spec) Validate() error {
	if s.System == nil {
		return fmt.Errorf("infer: no system")
	}
	if err := s.System.Validate(); err != nil {
		return err
	}
	if err := s.Model.Validate(); err != nil {
		return err
	}
	switch {
	case s.TP <= 0 || s.TP != s.System.NumDevices():
		return fmt.Errorf("infer: TP %d must equal system devices %d", s.TP, s.System.NumDevices())
	case s.Batch <= 0:
		return fmt.Errorf("infer: non-positive batch %d", s.Batch)
	case s.PromptTokens <= 0:
		return fmt.Errorf("infer: non-positive prompt length %d", s.PromptTokens)
	case s.GenTokens < 0:
		return fmt.Errorf("infer: negative generation length %d", s.GenTokens)
	}
	return nil
}

// Result is the latency prediction with the Fig. 9 decomposition.
type Result struct {
	// Total is the end-to-end latency in seconds.
	Total float64
	// Prefill is the summarization-phase latency.
	Prefill float64
	// Decode is the generation-phase latency.
	Decode float64
	// PerToken is the mean decode-step latency.
	PerToken float64

	// MemoryTime is the device-side kernel time of the decode phase (all
	// decode kernels are memory-bound — §6.1); Fig. 9's "Memory" bar.
	MemoryTime float64
	// CommTime is the collective time across both phases; Fig. 9's
	// "Communication" bar.
	CommTime float64
	// PrefillCompute is the device-side kernel time of the prefill phase.
	PrefillCompute float64

	// Footprint is the per-device weights + KV-cache requirement.
	Footprint memfoot.InferenceBreakdown
	// Fits reports whether the footprint fits the device DRAM.
	Fits bool

	// DRAMBytes is the off-chip traffic per device for the whole request
	// and WireBytes the per-device network traffic — inputs to the energy
	// model (internal/energy).
	DRAMBytes float64
	WireBytes float64
}

// phaseCost aggregates one pass over the network.
type phaseCost struct {
	device float64
	comm   float64
	// traffic accounting for the energy model
	dramBytes float64
	wireBytes float64
}

// add prices ops and sums their device and collective time and traffic
// into c in op order.
func (c *phaseCost) add(p *kernels.Pricer, ops []kernels.Op) {
	for i := range ops {
		pr := p.Price(&ops[i])
		if pr.Collective {
			c.comm += pr.Time
			c.wireBytes += pr.Bytes
		} else {
			c.device += pr.Time
			c.dramBytes += pr.Bytes
		}
	}
}

// passCost evaluates the full model (embedding + layers + head) for one
// Exec through the op pricer, with Spec.Algorithm resolving the
// collectives over the TP fabric. The op enumeration runs through scratch
// (nil means a throwaway local), so a StepCoster pricing thousands of
// simulator steps reuses one buffer and never allocates.
func passCost(s Spec, eng *roofline.Engine, exec kernels.Exec, scratch *[]kernels.Op) phaseCost {
	p := &kernels.Pricer{Engine: eng, Link: s.System.LinkBetween(s.TP), TP: s.TP, Algorithm: s.Algorithm}
	var local []kernels.Op
	if scratch == nil {
		scratch = &local
	}
	var c phaseCost
	ops := kernels.AppendEmbeddingForward((*scratch)[:0], s.Model, exec)
	c.add(p, ops)
	ops = kernels.AppendLayerForward(ops[:0], s.Model, exec)
	var layer phaseCost
	layer.add(p, ops)
	// Each product is rounded before its add, so no host fuses the two.
	c.device += float64(layer.device * float64(s.Model.Layers))
	c.comm += float64(layer.comm * float64(s.Model.Layers))
	c.dramBytes += float64(layer.dramBytes * float64(s.Model.Layers))
	c.wireBytes += float64(layer.wireBytes * float64(s.Model.Layers))
	ops = kernels.AppendLogitsForward(ops[:0], s.Model, exec)
	c.add(p, ops)
	*scratch = ops
	return c
}

// Predict estimates the end-to-end latency of one inference request batch.
// It is a thin composition over the step-cost engine: one PrefillCost pass
// plus the trapezoid-integrated sum of GenTokens DecodeStepCost steps
// (exact, since the per-step cost is linear in the KV length).
func Predict(s Spec) (Result, error) {
	coster, err := NewStepCoster(s)
	if err != nil {
		return Result{}, err
	}
	pre := coster.Prefill(s.Batch)
	dec := coster.decodePhase()

	fp := memfoot.Inference(s.Model, s.TP, s.Batch, s.PromptTokens+s.GenTokens, s.Precision.Bytes())

	res := Result{
		Prefill:        pre.Device + pre.Comm,
		Decode:         dec.Device + dec.Comm,
		MemoryTime:     dec.Device,
		CommTime:       pre.Comm + dec.Comm,
		PrefillCompute: pre.Device,
		Footprint:      fp,
		Fits:           fp.Total() <= s.System.Device.DRAMCapacity(),
		DRAMBytes:      pre.DRAMBytes + dec.DRAMBytes,
		WireBytes:      pre.WireBytes + dec.WireBytes,
	}
	res.Total = res.Prefill + res.Decode
	if s.GenTokens > 0 {
		res.PerToken = res.Decode / float64(s.GenTokens)
	}
	return res, nil
}

// GEMMReport is one row of the paper's Table 4: a named matrix-multiply of
// the summarization phase with its predicted time and bound type.
type GEMMReport struct {
	Function string
	// Time is the predicted kernel time.
	Time float64
	// Bound is the roofline classification ("compute" / "memory" /
	// "launch").
	Bound string
	// BoundLevel names the limiting memory level when memory-bound.
	BoundLevel string
	// FLOPs and Bytes describe the kernel.
	FLOPs float64
	Bytes float64
}

// PrefillGEMMTable analyzes the matrix multiplies of one transformer layer
// in the summarization phase, reproducing Table 4: the merged-head QKV
// projection, one single-head score and context GEMM, the output
// projection, and the two MLP GEMMs.
func PrefillGEMMTable(s Spec) ([]GEMMReport, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	eng := roofline.New(s.System.Device)
	cfg := s.Model
	rows := s.Batch * s.PromptTokens
	hd := cfg.HeadDim()
	kv := cfg.KVDim()

	mk := func(name string, g roofline.GEMM) GEMMReport {
		est := eng.EstimateGEMM(g)
		return GEMMReport{
			Function:   name,
			Time:       est.Time,
			Bound:      est.Bound.String(),
			BoundLevel: est.BoundLevel,
			FLOPs:      est.FLOPs,
			Bytes:      est.DRAMBytes,
		}
	}

	ffn := cfg.FFN / s.TP
	upName, upCols := "O.Wmlp1 = O1", ffn
	if cfg.MLP == model.MLPSwiGLU {
		upCols = 2 * ffn
	}
	return []GEMMReport{
		mk("merged-head X.Wkqv = K,Q,V", roofline.GEMM{
			M: rows, N: (cfg.Hidden + 2*kv) / s.TP, K: cfg.Hidden, Precision: s.Precision}),
		mk("single-head Q.K^T = R", roofline.GEMM{
			M: s.PromptTokens, N: s.PromptTokens, K: hd, Batch: s.Batch, Precision: s.Precision}),
		mk("single-head softmax(R).V = Z", roofline.GEMM{
			M: s.PromptTokens, N: hd, K: s.PromptTokens, Batch: s.Batch, Precision: s.Precision}),
		mk("Z.W = O", roofline.GEMM{
			M: rows, N: cfg.Hidden, K: cfg.Hidden / s.TP, Precision: s.Precision}),
		mk(upName, roofline.GEMM{
			M: rows, N: upCols, K: cfg.Hidden, Precision: s.Precision}),
		mk("O1.Wmlp2 = O2", roofline.GEMM{
			M: rows, N: cfg.Hidden, K: ffn, Precision: s.Precision}),
	}, nil
}
