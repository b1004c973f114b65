package serve

import "testing"

// nearestRankIndex computes the nearest-rank index ceil(q·n)-1 in exact
// integer arithmetic (q = num/100), the ground truth the float path in
// percentiles must match for every sample size.
func nearestRankIndex(num, n int) int {
	i := (num*n+99)/100 - 1
	if i < 0 {
		i = 0
	}
	return i
}

// TestPercentilesNearestRank is the property suite pinning the nearest-rank
// definition: for identity samples (value == index) every quantile must
// land on its exact integer rank across a dense range of n, which makes any
// float off-by-one in ceil(q·n) visible as a wrong value. It also pins
// monotonicity in q and the documented small-sample saturation boundaries
// (n < 20 ⇒ P95 == Max, n < 100 ⇒ P99 == Max, with the first non-saturated
// n exactly at 20 and 100).
func TestPercentilesNearestRank(t *testing.T) {
	ns := make([]int, 0, 4300)
	for n := 1; n <= 4096; n++ {
		ns = append(ns, n)
	}
	// Spot-check large sizes where float error in q·n has the most room.
	for _, n := range []int{10_000, 99_999, 100_000, 999_999, 1_000_000} {
		ns = append(ns, n)
	}
	for _, n := range ns {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		p := percentiles(sorted)
		if want := float64(nearestRankIndex(50, n)); p.P50 != want {
			t.Fatalf("n=%d: P50 rank = %g, want %g", n, p.P50, want)
		}
		if want := float64(nearestRankIndex(95, n)); p.P95 != want {
			t.Fatalf("n=%d: P95 rank = %g, want %g", n, p.P95, want)
		}
		if want := float64(nearestRankIndex(99, n)); p.P99 != want {
			t.Fatalf("n=%d: P99 rank = %g, want %g", n, p.P99, want)
		}
		if !(p.P50 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.Max) {
			t.Fatalf("n=%d: quantiles not monotone: %+v", n, p)
		}
		if p.Max != sorted[n-1] {
			t.Fatalf("n=%d: Max = %g, want %g", n, p.Max, sorted[n-1])
		}
		// The documented small-sample saturation: nearest-rank pins the
		// tail quantiles to Max until the sample is large enough to carry
		// a distinct tail rank.
		if n < 20 && p.P95 != p.Max {
			t.Fatalf("n=%d: P95 = %g should saturate to Max %g", n, p.P95, p.Max)
		}
		if n < 100 && p.P99 != p.Max {
			t.Fatalf("n=%d: P99 = %g should saturate to Max %g", n, p.P99, p.Max)
		}
	}
	// The saturation boundary is sharp: the first distinct tail rank
	// appears exactly at n == 20 (P95) and n == 100 (P99).
	twenty := make([]float64, 20)
	hundred := make([]float64, 100)
	for i := range twenty {
		twenty[i] = float64(i)
	}
	for i := range hundred {
		hundred[i] = float64(i)
	}
	if p := percentiles(twenty); p.P95 != 18 || p.Max != 19 {
		t.Errorf("n=20: P95 = %g (want 18, the first sub-Max rank), Max = %g", p.P95, p.Max)
	}
	if p := percentiles(hundred); p.P99 != 98 || p.Max != 99 {
		t.Errorf("n=100: P99 = %g (want 98, the first sub-Max rank), Max = %g", p.P99, p.Max)
	}
}

// TestPercentilesMeanSumsInSortedOrder pins Mean to the sum taken in
// sorted order. On this sample the arrival-order sum lands one ulp away,
// so replacing the sort with a selection that leaves the sample unsorted
// would change every reported Mean.
func TestPercentilesMeanSumsInSortedOrder(t *testing.T) {
	sample := []float64{0.87, 2.88, 1.62, 2.03}
	arrival := 0.0
	for _, v := range sample {
		arrival += v
	}
	sorted := []float64{0.87, 1.62, 2.03, 2.88}
	inOrder := 0.0
	for _, v := range sorted {
		inOrder += v
	}
	if arrival/4 == inOrder/4 {
		t.Fatalf("the sample no longer separates the two summation orders (%v)", arrival/4)
	}
	done := make([]RequestMetrics, len(sample))
	for i, v := range sample {
		done[i] = RequestMetrics{ID: i, E2E: v}
	}
	if got := summarizeRequests(done).E2E.Mean; got != inOrder/4 {
		t.Errorf("E2E mean %v, want the sorted-order %v (arrival order gives %v)", got, inOrder/4, arrival/4)
	}
}
