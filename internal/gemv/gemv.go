// Package gemv reproduces the paper's Fig. 3 GEMV validation methodology.
//
// The paper profiles GEMV kernels on physical A100 GPUs, records their
// DRAM bandwidth utilization, clusters the utilizations to obtain
// per-group factors, and shows that the calibrated roofline predictions
// correlate with the measurements at ~5.4% mean absolute percentage error
// (and that a single constant factor works for large kernels but degrades
// for small ones where software overhead bites).
//
// Without physical hardware, this package substitutes a synthetic
// measurement oracle (see DESIGN.md): roofline timing driven by a
// dimension-dependent DRAM-utilization surface — utilization ramps up with
// the streamed footprint and dips on unaligned leading dimensions — plus a
// fixed kernel-launch overhead and seeded multiplicative noise. The
// calibration pipeline (clustering, constant factor, error statistics) is
// identical to the paper's and is exercised end-to-end against the oracle.
package gemv

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

// Oracle simulates profiling GEMV kernels on one device.
type Oracle struct {
	dev arch.Device
	rng *rand.Rand

	// MaxUtil is the utilization ceiling of the surface (fraction of peak
	// DRAM bandwidth a perfectly sized GEMV achieves).
	MaxUtil float64
	// RampBytes is the streamed footprint at which utilization reaches
	// half of MaxUtil.
	RampBytes float64
	// Launch is the software overhead per measured kernel.
	Launch float64
	// NoiseSigma is the relative standard deviation of the measurement
	// noise.
	NoiseSigma float64
}

// NewOracle builds an A100-class oracle with the given noise seed.
func NewOracle(seed int64) *Oracle {
	return &Oracle{
		dev:        arch.A100(),
		rng:        rand.New(rand.NewSource(seed)),
		MaxUtil:    0.74,
		RampBytes:  12e6,
		Launch:     3.2e-6,
		NoiseSigma: 0.03,
	}
}

// footprint returns the bytes a GEMV streams from DRAM (dominated by the
// weight matrix).
func footprint(g roofline.GEMM) float64 { return g.CompulsoryBytes() }

// trueUtil is the noise-free utilization surface: a saturating ramp in the
// streamed footprint with alignment dips — the physical causes of the
// scatter in the paper's Fig. 3.
func (o *Oracle) trueUtil(g roofline.GEMM) float64 {
	s := footprint(g)
	u := o.MaxUtil * s / (s + o.RampBytes)
	if g.K%256 != 0 {
		u *= 0.93
	}
	if g.N%256 != 0 {
		u *= 0.95
	}
	return u
}

// measure returns one simulated "GPU time" for the kernel, including launch
// overhead and measurement noise.
func (o *Oracle) measure(g roofline.GEMM) float64 {
	peak := o.dev.DRAMLevel().BW
	t := footprint(g)/(peak*o.trueUtil(g)) + o.Launch
	noise := 1 + o.NoiseSigma*o.rng.NormFloat64()
	if noise < 0.9 {
		noise = 0.9
	}
	return t * noise
}

// measuredUtil converts a measured time back into an apparent DRAM
// utilization — what the paper extracts from its profiling runs. The
// known software launch overhead is deducted first so the factor reflects
// pure bandwidth utilization (the model re-adds its own launch estimate
// when predicting).
func (o *Oracle) measuredUtil(g roofline.GEMM, t float64) float64 {
	if t <= 0 {
		return 0
	}
	eff := t - o.dev.KernelLaunch
	if eff < t/10 {
		eff = t / 10
	}
	return footprint(g) / (o.dev.DRAMLevel().BW * eff)
}

// LLMKernels returns a GEMV sweep shaped like the decode-phase kernels of
// the model zoo: QKV, attention output, MLP up/down and vocabulary
// projections across the Llama and GPT presets (§4.1: "matrix/vector
// dimensions were selected to cover a wide range of kernel types used in
// the LLMs").
func LLMKernels() []roofline.GEMM {
	var out []roofline.GEMM
	add := func(n, k int) {
		out = append(out, roofline.GEMM{M: 1, N: n, K: k, Precision: tech.FP16})
	}
	for _, cfg := range []model.Config{
		model.Llama2_7B(), model.Llama2_13B(), model.Llama2_70B(),
		model.GPT7B(), model.GPT22B(), model.GPT175B(),
	} {
		h, f, v := cfg.Hidden, cfg.FFN, cfg.Vocab
		add(h+2*cfg.KVDim(), h) // qkv
		add(h, h)               // attention output
		add(f, h)               // mlp up
		add(h, f)               // mlp down
		add(v, h)               // logits
		// TP-sharded variants (2- and 8-way) shrink N.
		add((h+2*cfg.KVDim())/2, h)
		add(f/8, h)
	}
	// Small kernels where launch overhead dominates.
	for _, n := range []int{128, 512, 1000, 2000} {
		add(n, n)
	}
	return out
}

// Sample is one profiled kernel.
type Sample struct {
	Kernel   roofline.GEMM
	Measured float64
	Util     float64
}

// Profile measures every kernel once.
func Profile(o *Oracle, kernels []roofline.GEMM) []Sample {
	out := make([]Sample, len(kernels))
	for i, g := range kernels {
		t := o.measure(g)
		out[i] = Sample{Kernel: g, Measured: t, Util: o.measuredUtil(g, t)}
	}
	return out
}

// Cluster is one utilization group from the calibration.
type Cluster struct {
	// CenterLogBytes is the cluster centroid in log10(footprint bytes).
	CenterLogBytes float64
	// Util is the mean measured utilization of the cluster's members.
	Util float64
	// Size is the member count.
	Size int
}

// Calibration holds both of the paper's calibration variants.
type Calibration struct {
	// Clusters are the k-means utilization groups (Fig. 3 blue points).
	Clusters []Cluster
	// Constant is the single global utilization factor (orange points).
	Constant float64
}

// Calibrate clusters the measured utilizations by kernel footprint with
// 1-D k-means (k groups) and fits the constant factor to the saturated
// (large-matrix) regime — the two methods compared in §4.1.
func Calibrate(samples []Sample, k int) (Calibration, error) {
	if len(samples) == 0 {
		return Calibration{}, fmt.Errorf("gemv: no samples to calibrate")
	}
	if k < 1 {
		k = 1
	}
	if k > len(samples) {
		k = len(samples)
	}

	logs := make([]float64, len(samples))
	for i, s := range samples {
		logs[i] = math.Log10(footprint(s.Kernel))
	}
	sorted := append([]float64(nil), logs...)
	sort.Float64s(sorted)

	// Initialize centroids at quantiles, then Lloyd iterations.
	centers := make([]float64, k)
	for i := range centers {
		centers[i] = sorted[(2*i+1)*len(sorted)/(2*k)]
	}
	assign := make([]int, len(samples))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, l := range logs {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := math.Abs(l - ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		for c := range centers {
			var sum float64
			var n int
			for i, a := range assign {
				if a == c {
					sum += logs[i]
					n++
				}
			}
			if n > 0 {
				centers[c] = sum / float64(n)
			}
		}
		if !changed {
			break
		}
	}

	cal := Calibration{}
	for c := range centers {
		var sum float64
		var n int
		for i, a := range assign {
			if a == c {
				sum += samples[i].Util
				n++
			}
		}
		if n == 0 {
			continue
		}
		cal.Clusters = append(cal.Clusters, Cluster{
			CenterLogBytes: centers[c],
			Util:           sum / float64(n),
			Size:           n,
		})
	}
	sort.Slice(cal.Clusters, func(i, j int) bool {
		return cal.Clusters[i].CenterLogBytes < cal.Clusters[j].CenterLogBytes
	})
	// The constant factor is fitted to the saturated regime (the largest
	// cluster): §4.1 reports it gives "negligible errors for large
	// matrices" while small kernels, dominated by software overhead and
	// the utilization ramp, deviate.
	cal.Constant = cal.Clusters[len(cal.Clusters)-1].Util
	return cal, nil
}

// utilFor returns the clustered utilization factor for a kernel: the
// log-footprint position is interpolated between the neighbouring cluster
// centroids (in log-utilization space, since the ramp is multiplicative),
// clamping at the extreme clusters.
func (c Calibration) utilFor(g roofline.GEMM) float64 {
	if len(c.Clusters) == 0 {
		return c.Constant
	}
	l := math.Log10(footprint(g))
	cl := c.Clusters
	if l <= cl[0].CenterLogBytes {
		return cl[0].Util
	}
	last := len(cl) - 1
	if l >= cl[last].CenterLogBytes {
		return cl[last].Util
	}
	for i := 1; i <= last; i++ {
		if l > cl[i].CenterLogBytes {
			continue
		}
		span := cl[i].CenterLogBytes - cl[i-1].CenterLogBytes
		if span <= 0 {
			return cl[i].Util
		}
		w := (l - cl[i-1].CenterLogBytes) / span
		lo, hi := math.Log(cl[i-1].Util), math.Log(cl[i].Util)
		return math.Exp(lo + w*(hi-lo))
	}
	return cl[last].Util
}

// engineWith returns a roofline engine whose GEMV DRAM utilization comes
// from the given factor-of-peak function (the calibration output), mapped
// onto the engine's level-utilization convention.
func engineWith(dev arch.Device, utilOfPeak func(roofline.GEMM) float64) *roofline.Engine {
	eng := roofline.New(dev)
	stream := dev.DRAMLevel().Util
	eng.GEMVUtilFn = func(g roofline.GEMM) float64 {
		u := utilOfPeak(g) / stream
		if u > 1.2 {
			u = 1.2
		}
		if u < 0.05 {
			u = 0.05
		}
		return u
	}
	return eng
}

// Prediction is one Fig. 3 point pair.
type Prediction struct {
	Kernel    roofline.GEMM
	Measured  float64
	Clustered float64
	Constant  float64
}

// Evaluate predicts every sample with both calibrations.
func Evaluate(o *Oracle, cal Calibration, samples []Sample) []Prediction {
	clustered := engineWith(o.dev, cal.utilFor)
	constant := engineWith(o.dev, func(roofline.GEMM) float64 { return cal.Constant })
	out := make([]Prediction, len(samples))
	for i, s := range samples {
		out[i] = Prediction{
			Kernel:    s.Kernel,
			Measured:  s.Measured,
			Clustered: clustered.EstimateGEMM(s.Kernel).Time,
			Constant:  constant.EstimateGEMM(s.Kernel).Time,
		}
	}
	return out
}

// Stats summarizes a prediction set.
type Stats struct {
	// MAPE is the mean absolute percentage error vs the measurements.
	MAPEClustered float64
	MAPEConstant  float64
	// Corr is the Pearson correlation of log(predicted) vs log(measured)
	// for the clustered calibration — the tightness of Fig. 3's diagonal.
	Corr float64
}

// Summarize computes the headline statistics of an evaluation.
func Summarize(preds []Prediction) Stats {
	var st Stats
	if len(preds) == 0 {
		return st
	}
	var sc, sk float64
	xs := make([]float64, len(preds))
	ys := make([]float64, len(preds))
	for i, p := range preds {
		sc += math.Abs(p.Clustered-p.Measured) / p.Measured
		sk += math.Abs(p.Constant-p.Measured) / p.Measured
		xs[i] = math.Log10(p.Measured)
		ys[i] = math.Log10(p.Clustered)
	}
	n := float64(len(preds))
	st.MAPEClustered = sc / n
	st.MAPEConstant = sk / n
	st.Corr = pearson(xs, ys)
	return st
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
