package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{1.5e3, "1.50 KB"},
		{2.5e6, "2.50 MB"},
		{80e9, "80.00 GB"},
		{1.9e12, "1.90 TB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0 s"},
		{1.5, "1.500 s"},
		{0.0125, "12.500 ms"},
		{42e-6, "42.000 µs"},
		{3e-9, "3.0 ns"},
	}
	for _, c := range cases {
		if got := FormatSeconds(c.in); got != c.want {
			t.Errorf("FormatSeconds(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatFLOPs(t *testing.T) {
	if got := FormatFLOPs(3.2e12); got != "3.20 TFLOP" {
		t.Errorf("FormatFLOPs = %q", got)
	}
	if got := FormatFLOPs(10); !strings.Contains(got, "FLOP") {
		t.Errorf("FormatFLOPs small = %q", got)
	}
}

func TestFormatRate(t *testing.T) {
	if got := FormatRate(3.35e12); got != "3.35 TB/s" {
		t.Errorf("FormatRate = %q", got)
	}
	if got := FormatRate(200e9); got != "200.00 GB/s" {
		t.Errorf("FormatRate = %q", got)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(11, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr(11,10) = %g, want 0.1", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %g, want 0", got)
	}
	if got := RelErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelErr(1,0) = %g, want +Inf", got)
	}
}

func TestSumMeanMax(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if sum(xs) != 10 {
		t.Errorf("sum = %g", sum(xs))
	}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if Max(xs) != 4 {
		t.Errorf("Max = %g", Max(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 || sum(nil) != 0 {
		t.Error("empty-slice helpers should return 0")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1e12, 1e12+1, 1e-9) {
		t.Error("large numbers differing by 1 should be almost equal")
	}
	if AlmostEqual(1, 2, 1e-9) {
		t.Error("1 and 2 are not almost equal")
	}
}

// Property: RelErr is scale-invariant — RelErr(a*s, b*s) == RelErr(a, b)
// for any positive scale.
func TestRelErrScaleInvariantProperty(t *testing.T) {
	f := func(a, b float64, scaleSeed uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Keep magnitudes sane to avoid overflow in the product.
		if math.Abs(a) > 1e100 || math.Abs(b) > 1e100 || b == 0 {
			return true
		}
		s := 1.0 + float64(scaleSeed)
		return math.Abs(RelErr(a*s, b*s)-RelErr(a, b)) < 1e-9*(1+RelErr(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
