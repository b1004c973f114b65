// Package units provides the scalar helpers shared across the Optimus
// performance model: decimal scale factors, human-readable byte, time,
// FLOP and bandwidth formatting, relative error, and small slice
// statistics. All model arithmetic uses plain float64 seconds, bytes and
// FLOPs so that expressions read like the paper's equations.
package units

import (
	"fmt"
	"math"
)

// Common scale factors. Bandwidths and FLOP rates are decimal by vendor
// convention (1 GB/s = 1e9 B/s); capacities are decimal too, for
// consistency with the paper's numbers (80 GB = 80e9 B), where a vendor
// quotes GiB.
const (
	KB = 1e3
	MB = 1e6
	GB = 1e9
	TB = 1e12

	GFLOP = 1e9
	TFLOP = 1e12
	PFLOP = 1e15
)

// FormatBytes renders a byte count with a binary-free decimal unit suffix,
// e.g. 1.50 GB, matching how the paper reports capacities.
func FormatBytes(b float64) string {
	switch {
	case math.Abs(b) >= TB:
		return fmt.Sprintf("%.2f TB", b/TB)
	case math.Abs(b) >= GB:
		return fmt.Sprintf("%.2f GB", b/GB)
	case math.Abs(b) >= MB:
		return fmt.Sprintf("%.2f MB", b/MB)
	case math.Abs(b) >= KB:
		return fmt.Sprintf("%.2f KB", b/KB)
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

// FormatSeconds renders a model time with an adaptive unit (s, ms, µs, ns).
func FormatSeconds(s float64) string {
	abs := math.Abs(s)
	switch {
	case abs >= 1:
		return fmt.Sprintf("%.3f s", s)
	case abs >= 1e-3:
		return fmt.Sprintf("%.3f ms", s*1e3)
	case abs >= 1e-6:
		return fmt.Sprintf("%.3f µs", s*1e6)
	case abs == 0:
		return "0 s"
	default:
		return fmt.Sprintf("%.1f ns", s*1e9)
	}
}

// FormatFLOPs renders an operation count (GFLOP/TFLOP/PFLOP).
func FormatFLOPs(f float64) string {
	switch {
	case math.Abs(f) >= PFLOP:
		return fmt.Sprintf("%.2f PFLOP", f/PFLOP)
	case math.Abs(f) >= TFLOP:
		return fmt.Sprintf("%.2f TFLOP", f/TFLOP)
	case math.Abs(f) >= GFLOP:
		return fmt.Sprintf("%.2f GFLOP", f/GFLOP)
	default:
		return fmt.Sprintf("%.0f FLOP", f)
	}
}

// FormatRate renders a bandwidth in B/s with adaptive units.
func FormatRate(r float64) string {
	switch {
	case math.Abs(r) >= TB:
		return fmt.Sprintf("%.2f TB/s", r/TB)
	case math.Abs(r) >= GB:
		return fmt.Sprintf("%.2f GB/s", r/GB)
	case math.Abs(r) >= MB:
		return fmt.Sprintf("%.2f MB/s", r/MB)
	default:
		return fmt.Sprintf("%.0f B/s", r)
	}
}

// RelErr returns |pred-ref|/|ref|. A zero reference with a nonzero prediction
// returns +Inf; both zero returns 0.
func RelErr(pred, ref float64) float64 {
	if ref == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-ref) / math.Abs(ref)
}

// AlmostEqual reports whether two floats agree to within an absolute epsilon
// scaled by magnitude, suitable for unit-test comparisons of model outputs.
//
//lint:export the sum-of-parts checks in internal/train and internal/infer tests compare through it
func AlmostEqual(a, b, eps float64) bool {
	//lint:floateq deliberate exact fast path: handles equal infinities, where a-b is NaN and the epsilon test fails
	if a == b {
		return true
	}
	// Any remaining infinity (opposite signs, or one finite operand) is a
	// true mismatch: without this, eps*Inf swallows the difference.
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= eps*scale
}

// sum adds a slice of float64.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
