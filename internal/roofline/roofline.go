// Package roofline implements the hierarchical roofline model at the heart
// of the Optimus performance predictor (paper §3.1, after DeepFlow). A
// kernel's execution time on one device is the maximum of its compute time
// and its data-movement time at every level of the memory hierarchy, with
// memory-subsystem-aware tiling deciding how much traffic crosses each
// level and utilization factors derating peak bandwidths (§4.1).
//
// The engine classifies every kernel as compute-bound or memory-bound at a
// specific level — the classification driving the paper's Table 4, Fig. 7
// and Fig. 8 — and models the fixed kernel-launch software overhead that
// dominates tiny autoregressive-generation kernels.
//
// Each kernel class — GEMM, fused tensor-core kernel, element-wise stream —
// has exactly one evaluation body, and it allocates nothing, so the
// per-step pricing of the serving simulator and the per-candidate pricing
// of a plan sweep call the same Estimate* methods the reports print.
package roofline

import (
	"fmt"
	"math"

	"optimus/internal/arch"
	"optimus/internal/tech"
)

// Bound says which resource limits a kernel.
type Bound int

// Bound kinds. BoundMemory is qualified by the level name in Estimate.
const (
	BoundCompute Bound = iota
	BoundMemory
	BoundLaunch
)

// String renders the bound kind as in the paper's tables.
func (b Bound) String() string {
	switch b {
	case BoundCompute:
		return "compute"
	case BoundMemory:
		return "memory"
	case BoundLaunch:
		return "launch"
	default:
		return fmt.Sprintf("Bound(%d)", int(b))
	}
}

// GEMM describes a (possibly batched) matrix multiply C[M×N] = A[M×K] ×
// B[K×N] executed Batch times with independent operands (attention heads).
type GEMM struct {
	M, N, K int
	// Batch is the number of independent instances fused in one kernel
	// launch; zero means 1.
	Batch int
	// Precision of the operands (accumulate is modeled at no extra cost,
	// matching tensor-core behaviour).
	Precision tech.Precision
}

// Instances returns the batch count, at least 1.
func (g GEMM) Instances() int {
	if g.Batch < 1 {
		return 1
	}
	return g.Batch
}

// FLOPs returns the multiply-add operation count (2·M·N·K per instance).
func (g GEMM) FLOPs() float64 {
	return 2 * float64(g.M) * float64(g.N) * float64(g.K) * float64(g.Instances())
}

// CompulsoryBytes returns the minimum off-chip traffic: each operand read
// once and the result written once.
func (g GEMM) CompulsoryBytes() float64 {
	eb := g.Precision.Bytes()
	per := (float64(float64(g.M)*float64(g.K)) + float64(float64(g.K)*float64(g.N)) + float64(float64(g.M)*float64(g.N))) * eb
	return per * float64(g.Instances())
}

// IsGEMV reports whether the kernel is effectively a matrix-vector product
// (the skinny shapes of autoregressive generation, paper §4.1).
func (g GEMM) IsGEMV() bool {
	return g.M <= 8 || g.N <= 8
}

// ArithmeticIntensity returns FLOPs per compulsory byte.
func (g GEMM) ArithmeticIntensity() float64 {
	b := g.CompulsoryBytes()
	if b == 0 {
		return 0
	}
	return g.FLOPs() / b
}

// levelTime is the data-movement time attributed to one memory level; the
// hierarchy tests read it through the buffer an evaluation body fills.
type levelTime struct {
	name string
	// bytes crossing the boundary between this level and the next-inner one.
	bytes float64
	// time = bytes / effective bandwidth of this level.
	time float64
}

// Estimate is the roofline prediction for one kernel.
type Estimate struct {
	// Time is the predicted execution time in seconds, including launch
	// overhead.
	Time float64
	// ComputeTime is FLOPs over effective compute throughput.
	ComputeTime float64
	// MemoryTime is the slowest memory level's data-movement time.
	MemoryTime float64
	// Launch is the fixed software overhead included in Time.
	Launch float64
	// Bound classifies the kernel by its largest component.
	Bound Bound
	// BoundLevel names the limiting memory level when Bound == BoundMemory.
	BoundLevel string
	// FLOPs is the operation count.
	FLOPs float64
	// DRAMBytes is the off-chip traffic.
	DRAMBytes float64
}

// roof is the running state of one evaluation body: the time of the
// binding resource so far, the slowest memory level's time, and the bound
// they imply, with the limiting level as an index into the device's
// memory hierarchy (-1 for none). Four word-sized fields keep it in
// registers, so folding a level costs no memory traffic.
type roof struct {
	time, memory float64
	level        int
	bound        Bound
}

// newRoof starts an evaluation at its compute time.
func newRoof(compute float64) roof {
	return roof{time: compute, level: -1, bound: BoundCompute}
}

// fold folds memory level i's traffic time into r, recording the level in
// levels[i] when the caller supplied a buffer: the level may become the
// slowest one and, past every earlier component, the binding resource.
func (r roof) fold(levels []levelTime, mem []arch.MemLevel, i int, bytes, time float64) roof {
	if levels != nil {
		levels[i] = levelTime{name: mem[i].Name, bytes: bytes, time: time}
	}
	if time > r.memory {
		r.memory = time
	}
	if time > r.time {
		r.time, r.level, r.bound = time, i, BoundMemory
	}
	return r
}

// finish adds the fixed launch overhead on top of the binding resource,
// classifying the kernel launch-bound when the overhead exceeds every
// other component, and names the limiting memory level. It returns
// scalars, not an Estimate: each body builds its Estimate in its own
// return statement, which spares a copy of the struct through memory.
func (r roof) finish(mem []arch.MemLevel, launch float64) (time float64, bound Bound, level string) {
	bound = r.bound
	if launch > r.time {
		bound = BoundLaunch
	}
	if r.level >= 0 {
		level = mem[r.level].Name
	}
	return r.time + launch, bound, level
}

// Engine evaluates kernels against one device.
type Engine struct {
	dev arch.Device

	// GEMVDRAMUtil is the extra DRAM bandwidth derating applied to
	// GEMV-class kernels on top of the level's streaming utilization — the
	// paper's "constant DRAM utilization factor" (§4.1). A per-kernel
	// clustered factor can be supplied via GEMVUtilFn.
	GEMVDRAMUtil float64

	// GEMVUtilFn, when non-nil, returns a kernel-specific DRAM utilization
	// factor for GEMV shapes (the clustered calibration of §4.1),
	// overriding GEMVDRAMUtil.
	GEMVUtilFn func(g GEMM) float64

	// tile edge lengths used for compute-efficiency quantization.
	tileM, tileN, tileK int
}

// New builds an Engine for a device with the default calibration.
func New(dev arch.Device) *Engine {
	return &Engine{
		dev:          dev,
		GEMVDRAMUtil: 0.88,
		tileM:        64,
		tileN:        64,
		tileK:        32,
	}
}

// Device returns the engine's device.
func (e *Engine) Device() arch.Device { return e.dev }

// quantization derates compute throughput for shapes that do not fill whole
// hardware tiles (tile- and wave-quantization of real GEMM kernels).
func (e *Engine) quantization(g GEMM) float64 {
	q := func(dim, tile int) float64 {
		if dim <= 0 {
			return 1
		}
		t := float64(tile)
		d := float64(dim)
		return d / (math.Ceil(d/t) * t)
	}
	return q(g.M, e.tileM) * q(g.N, e.tileN) * q(g.K, e.tileK)
}

// computeThroughput resolves the effective FLOP/s for a GEMM: peak at the
// best supported precision, derated by the device fat-GEMM efficiency and
// the shape quantization. GEMV shapes skip the tile quantization — their
// kernels do not tile onto tensor-core fragments, so a one-row operand is
// not a 1/64-utilized tile.
func (e *Engine) computeThroughput(g GEMM) float64 {
	_, peak := e.dev.BestCompute(g.Precision)
	if peak == 0 {
		return 0
	}
	if g.IsGEMV() {
		return peak * e.dev.GEMMEff
	}
	return peak * e.dev.GEMMEff * e.quantization(g)
}

// tileEdge returns the largest square tile edge such that three operand
// tiles of the kernel's element size fit in capacity.
func tileEdge(capacity, elemBytes float64) float64 {
	if capacity <= 0 || elemBytes <= 0 {
		return 1
	}
	t := math.Floor(math.Sqrt(capacity / (3 * elemBytes)))
	if t < 1 {
		return 1
	}
	return t
}

// trafficThrough returns the bytes crossing into the level inside the one
// with the given capacity: a tiled GEMM re-reads the A and B panels once
// per output tile, writes C once, and can never move less than the
// compulsory traffic.
func trafficThrough(g GEMM, capacity float64) float64 {
	eb := g.Precision.Bytes()
	m, n, k := float64(g.M), float64(g.N), float64(g.K)
	t := tileEdge(capacity, eb)
	perInstance := 2*m*n*k*eb/t + float64(m*n*eb)
	compulsory := (float64(m*k) + float64(k*n) + float64(m*n)) * eb
	if perInstance < compulsory {
		perInstance = compulsory
	}
	return perInstance * float64(g.Instances())
}

// dramUtil returns the DRAM utilization multiplier for the kernel: 1 for
// fat GEMMs (the level's streaming Util already applies), the calibrated
// constant for GEMV shapes, or the clustered per-kernel factor if set.
func (e *Engine) dramUtil(g GEMM) float64 {
	if !g.IsGEMV() {
		return 1
	}
	if e.GEMVUtilFn != nil {
		return e.GEMVUtilFn(g)
	}
	return e.GEMVDRAMUtil
}

// EstimateGEMM predicts the execution time of one (batched) GEMM.
//
// The hierarchical roofline evaluates, per memory level, the traffic that
// tiling at the next-inner level forces across this level's boundary; the
// kernel time is the max of compute time and every level's traffic time,
// plus the fixed launch overhead.
func (e *Engine) EstimateGEMM(g GEMM) Estimate { return e.gemm(g, nil) }

// gemm is the one GEMM evaluation; levels, when non-nil, holds one entry
// per memory level and receives each level's traffic, innermost first.
//
//optimus:hotpath
func (e *Engine) gemm(g GEMM, levels []levelTime) Estimate {
	flops := g.FLOPs()
	compute := math.Inf(1)
	if thru := e.computeThroughput(g); thru > 0 {
		compute = flops / thru
	}
	r := newRoof(compute)
	var dramBytes float64
	mem := e.dev.Mem
	for i, lvl := range mem {
		var bytes float64
		if i == 0 {
			// Traffic into the innermost level is governed by the
			// register-file tile; model it as the level-0 tile of 1/8 the
			// L1 capacity (operands staged through shared memory).
			bytes = trafficThrough(g, lvl.Capacity/8)
		} else {
			bytes = trafficThrough(g, mem[i-1].Capacity)
		}
		bw := lvl.EffBW()
		if i == len(mem)-1 {
			bw *= e.dramUtil(g)
			dramBytes = bytes
		}
		r = r.fold(levels, mem, i, bytes, bytes/bw)
	}
	time, bound, level := r.finish(mem, e.dev.KernelLaunch)
	return Estimate{
		Time: time, ComputeTime: compute, MemoryTime: r.memory, Launch: e.dev.KernelLaunch,
		Bound: bound, BoundLevel: level, FLOPs: flops, DRAMBytes: dramBytes,
	}
}

// Fused describes a tensor-core kernel whose data movement is decoupled
// from its FLOP count — the FlashAttention pattern of §1.1, which "focuses
// on the memory access to and from DRAM at the cost of FLOPs": the
// attention score matrix never leaves on-chip memory, so off-chip traffic
// is just the Q/K/V inputs and the output.
type Fused struct {
	Name string
	// FLOPs is the arithmetic work executed on the tensor cores.
	FLOPs float64
	// DRAMBytes is the off-chip traffic.
	DRAMBytes float64
	// OnChipBytes is the traffic through the innermost level (the tiled
	// working set); zero derives it as 2x the DRAM traffic.
	OnChipBytes float64
	// Precision selects the tensor-engine format.
	Precision tech.Precision
}

// EstimateFused predicts a fused tensor-core kernel: compute at the
// device's fat-GEMM efficiency versus its on-chip and explicit DRAM
// streams.
func (e *Engine) EstimateFused(f Fused) Estimate { return e.fused(f, nil) }

// fused is the one fused-kernel evaluation; levels, when non-nil, holds
// one entry per memory level and receives the on-chip traffic at the
// innermost level and the DRAM traffic at the outermost.
//
//optimus:hotpath
func (e *Engine) fused(f Fused, levels []levelTime) Estimate {
	compute := math.Inf(1)
	if _, peak := e.dev.BestCompute(f.Precision); peak > 0 {
		compute = f.FLOPs / (peak * e.dev.GEMMEff)
	}
	onChip := f.OnChipBytes
	if onChip <= 0 {
		onChip = 2 * f.DRAMBytes
	}
	mem := e.dev.Mem
	dram := len(mem) - 1
	r := newRoof(compute)
	r = r.fold(levels, mem, 0, onChip, onChip/mem[0].EffBW())
	r = r.fold(levels, mem, dram, f.DRAMBytes, f.DRAMBytes/mem[dram].EffBW())
	time, bound, level := r.finish(mem, e.dev.KernelLaunch)
	return Estimate{
		Time: time, ComputeTime: compute, MemoryTime: r.memory, Launch: e.dev.KernelLaunch,
		Bound: bound, BoundLevel: level, FLOPs: f.FLOPs, DRAMBytes: f.DRAMBytes,
	}
}

// Elementwise describes a streaming non-GEMM kernel (softmax, layer-norm,
// dropout, activation, residual add, embedding gather): Elements values
// each touched BytesPerElem bytes of traffic with FLOPsPerElem operations.
type Elementwise struct {
	Name         string
	Elements     float64
	BytesPerElem float64
	FLOPsPerElem float64
}

// EstimateElementwise predicts a streaming kernel's time: the max of its
// DRAM streaming time and its vector-compute time, plus launch overhead.
// Fused kernels should be expressed as a single Elementwise with combined
// traffic (kernel fusion improves arithmetic intensity, paper §1.2).
//
//optimus:hotpath
func (e *Engine) EstimateElementwise(w Elementwise) Estimate {
	bytes := w.Elements * w.BytesPerElem
	flops := w.Elements * w.FLOPsPerElem
	mem := e.dev.Mem
	dram := len(mem) - 1
	memory := bytes / mem[dram].EffBW()
	var compute float64
	if e.dev.VectorCompute > 0 {
		compute = flops / e.dev.VectorCompute
	}
	r := newRoof(compute)
	r.memory = memory
	if memory >= compute {
		r.time, r.level, r.bound = memory, dram, BoundMemory
	}
	time, bound, level := r.finish(mem, e.dev.KernelLaunch)
	return Estimate{
		Time: time, ComputeTime: compute, MemoryTime: r.memory, Launch: e.dev.KernelLaunch,
		Bound: bound, BoundLevel: level, FLOPs: flops, DRAMBytes: bytes,
	}
}
