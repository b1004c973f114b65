package gemv

import (
	"math"
	"testing"

	"optimus/internal/roofline"
	"optimus/internal/tech"
)

func profileAll(t *testing.T) (*Oracle, []Sample, Calibration) {
	t.Helper()
	o := NewOracle(42)
	samples := Profile(o, LLMKernels())
	cal, err := Calibrate(samples, 6)
	if err != nil {
		t.Fatal(err)
	}
	return o, samples, cal
}

// TestFig3Headline reproduces the §4.1 result: clustered utilization
// factors bring the mean absolute percentage error to the ~5% class, the
// constant factor is worse, and the predicted-vs-measured correlation is
// tight.
func TestFig3Headline(t *testing.T) {
	o, samples, cal := profileAll(t)
	preds := Evaluate(o, cal, samples)
	st := Summarize(preds)
	t.Logf("MAPE clustered = %.1f%%, constant = %.1f%%, corr = %.4f",
		100*st.MAPEClustered, 100*st.MAPEConstant, st.Corr)
	if st.MAPEClustered > 0.08 {
		t.Errorf("clustered MAPE %.1f%% exceeds 8%% (paper: 5.4%%)", 100*st.MAPEClustered)
	}
	if st.MAPEConstant <= st.MAPEClustered {
		t.Error("constant factor should be worse than clustered factors")
	}
	if st.Corr < 0.98 {
		t.Errorf("log-log correlation %.4f too weak", st.Corr)
	}
}

func TestConstantFactorFineForLargeKernels(t *testing.T) {
	// §4.1: the constant factor yields "negligible errors for large
	// matrices; for smaller sizes, the software overhead has a
	// non-negligible impact".
	o, samples, cal := profileAll(t)
	preds := Evaluate(o, cal, samples)
	var largeErr, smallErr []float64
	for _, p := range preds {
		e := math.Abs(p.Constant-p.Measured) / p.Measured
		if p.Kernel.CompulsoryBytes() > 50e6 {
			largeErr = append(largeErr, e)
		} else if p.Kernel.CompulsoryBytes() < 4e6 {
			smallErr = append(smallErr, e)
		}
	}
	if len(largeErr) == 0 || len(smallErr) == 0 {
		t.Fatal("kernel sweep must span small and large footprints")
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if m := mean(largeErr); m > 0.10 {
		t.Errorf("constant-factor error on large kernels %.1f%% should be small", 100*m)
	}
	if mean(smallErr) <= mean(largeErr) {
		t.Error("small kernels should suffer more from the constant factor")
	}
}

func TestOracleDeterministicPerSeed(t *testing.T) {
	g := roofline.GEMM{M: 1, N: 4096, K: 4096, Precision: tech.FP16}
	a := NewOracle(7).measure(g)
	b := NewOracle(7).measure(g)
	if a != b {
		t.Error("same seed must reproduce the same measurement")
	}
	c := NewOracle(8).measure(g)
	if a == c {
		t.Error("different seeds should perturb the measurement")
	}
}

func TestUtilizationRampsWithSize(t *testing.T) {
	o := NewOracle(1)
	small := o.trueUtil(roofline.GEMM{M: 1, N: 512, K: 512, Precision: tech.FP16})
	large := o.trueUtil(roofline.GEMM{M: 1, N: 16384, K: 16384, Precision: tech.FP16})
	if small >= large {
		t.Errorf("utilization should ramp with footprint: %g vs %g", small, large)
	}
	if large > o.MaxUtil {
		t.Errorf("utilization %g exceeded ceiling %g", large, o.MaxUtil)
	}
}

func TestMisalignmentDipsUtilization(t *testing.T) {
	o := NewOracle(1)
	aligned := o.trueUtil(roofline.GEMM{M: 1, N: 4096, K: 4096, Precision: tech.FP16})
	unaligned := o.trueUtil(roofline.GEMM{M: 1, N: 4096, K: 4100, Precision: tech.FP16})
	if unaligned >= aligned {
		t.Error("unaligned K should dip utilization")
	}
}

func TestCalibrateClusterShapes(t *testing.T) {
	_, samples, cal := profileAll(t)
	if len(cal.Clusters) < 2 {
		t.Fatalf("want multiple clusters, got %d", len(cal.Clusters))
	}
	// Clusters are sorted by footprint and utilization grows with it.
	for i := 1; i < len(cal.Clusters); i++ {
		if cal.Clusters[i].CenterLogBytes <= cal.Clusters[i-1].CenterLogBytes {
			t.Error("clusters not sorted by footprint")
		}
	}
	first, last := cal.Clusters[0], cal.Clusters[len(cal.Clusters)-1]
	if first.Util >= last.Util {
		t.Errorf("utilization should grow across clusters: %g vs %g", first.Util, last.Util)
	}
	var members int
	for _, c := range cal.Clusters {
		members += c.Size
	}
	if members != len(samples) {
		t.Errorf("cluster sizes sum to %d, want %d", members, len(samples))
	}
	if cal.Constant <= 0 || cal.Constant > 1 {
		t.Errorf("constant factor %g implausible", cal.Constant)
	}
}

func TestUtilForPicksNearestCluster(t *testing.T) {
	_, _, cal := profileAll(t)
	tiny := roofline.GEMM{M: 1, N: 128, K: 128, Precision: tech.FP16}
	huge := roofline.GEMM{M: 1, N: 51200, K: 12288, Precision: tech.FP16}
	if cal.utilFor(tiny) >= cal.utilFor(huge) {
		t.Error("nearest-cluster utilization should grow with footprint")
	}
}

func TestCalibrateEdgeCases(t *testing.T) {
	if _, err := Calibrate(nil, 3); err == nil {
		t.Error("empty sample set should error")
	}
	o := NewOracle(3)
	one := Profile(o, LLMKernels()[:1])
	cal, err := Calibrate(one, 5) // k > n must clamp
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Clusters) != 1 {
		t.Errorf("single sample should give one cluster, got %d", len(cal.Clusters))
	}
}

func TestLLMKernelsAreGEMV(t *testing.T) {
	ks := LLMKernels()
	if len(ks) < 30 {
		t.Fatalf("sweep too small: %d kernels", len(ks))
	}
	for _, g := range ks {
		if !g.IsGEMV() {
			t.Errorf("kernel %dx%dx%d is not a GEMV", g.M, g.N, g.K)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.MAPEClustered != 0 || st.Corr != 0 {
		t.Error("empty summary should be zero")
	}
}
