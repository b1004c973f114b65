package comm

import (
	"math"
	"testing"
	"testing/quick"

	"optimus/internal/arch"
	"optimus/internal/tech"
)

// bigLink is an idealized fabric where the saturating small-message factor
// is negligible for the payloads used in tests.
func bigLink() arch.Link {
	return arch.Link{Tech: tech.NVLink3, BW: 300e9, Latency: 5e-6, Util: 1.0}
}

func TestRingAllReduceMatchesEq3(t *testing.T) {
	link := bigLink()
	k := 1e9 // 1 GB: saturated bandwidth regime
	n := 8
	got := AllReduceTime(Ring, k, n, link)
	// Eq. (3): 2K(N-1)/(N·BW) + 2l(N-1), with the saturation factor ≈ 1.
	sat := (k / 8) / (k/8 + smallMsgHalfPoint)
	want := 2*k*7/(8*300e9*sat) + 2*5e-6*7
	// Reconstruct exactly as the implementation computes.
	want = 2 * k * 7 / (8 * (300e9 * sat)) // bw term
	want += 2 * 5e-6 * 7
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("ring all-reduce = %g, want %g", got, want)
	}
}

func TestTreeBeatsRingOnLatency(t *testing.T) {
	// For tiny inference payloads the tree's 2l·log2(N) beats the ring's
	// 2l(N-1) — the reason the paper models trees for inference (§3.4).
	link := bigLink()
	k := 10e3 // 10 KB decode-step all-reduce
	n := 8
	ring := AllReduceTime(Ring, k, n, link)
	tree := AllReduceTime(DoubleBinaryTree, k, n, link)
	if tree >= ring {
		t.Errorf("tree (%g) should beat ring (%g) at small payloads", tree, ring)
	}
	// Latency terms: ring 2l·7 = 70µs vs tree 2l·3 = 30µs.
	if diff := ring - tree; math.Abs(diff-2*5e-6*4) > 2e-6 {
		t.Errorf("ring-tree latency gap = %g, want ≈ 40µs", diff)
	}
}

func TestTreeAndRingSameBandwidthTerm(t *testing.T) {
	// Both algorithms are bandwidth-optimal; at huge payloads they converge.
	link := bigLink()
	k := 50e9
	ring := AllReduceTime(Ring, k, 8, link)
	tree := AllReduceTime(DoubleBinaryTree, k, 8, link)
	if math.Abs(ring-tree)/ring > 0.01 {
		t.Errorf("ring %g and tree %g should converge at large payloads", ring, tree)
	}
}

func TestAllReduceIndependentOfNAtLargeN(t *testing.T) {
	// Ring bandwidth cost "is determined by the slowest connection...,
	// independent of the number of processors" (§3.4): the (N-1)/N factor
	// approaches 1.
	link := bigLink()
	k := 10e9
	t16 := AllReduceTime(Ring, k, 16, link) - 2*link.Latency*15
	t64 := AllReduceTime(Ring, k, 64, link) - 2*link.Latency*63
	if math.Abs(t16-t64)/t16 > 0.06 {
		t.Errorf("bw term should be nearly N-independent: %g vs %g", t16, t64)
	}
}

func TestSmallMessageUnderutilizesBandwidth(t *testing.T) {
	link := bigLink()
	if got := effBW(link, 1e3); got >= link.BW/50 {
		t.Errorf("1KB message should see far below peak: %g of %g", got, link.BW)
	}
	if got := effBW(link, 1e9); got < 0.99*link.EffBW() {
		t.Errorf("1GB message should saturate: %g of %g", got, link.EffBW())
	}
}

func TestAllGatherHalfOfAllReduce(t *testing.T) {
	link := bigLink()
	k := 1e9
	ag := AllGatherTime(k, 8, link)
	ar := AllReduceTime(Ring, k, 8, link)
	if math.Abs(ar-2*ag)/ar > 0.01 {
		t.Errorf("ring all-reduce (%g) should cost two all-gathers (%g)", ar, ag)
	}
}

func TestReduceScatterSymmetric(t *testing.T) {
	link := bigLink()
	if ReduceScatterTime(1e8, 4, link) != AllGatherTime(1e8, 4, link) {
		t.Error("reduce-scatter and all-gather should cost the same")
	}
}

func TestP2P(t *testing.T) {
	link := bigLink()
	k := 1e9
	got := P2PTime(k, link)
	want := k/effBW(link, k) + link.Latency
	if got != want {
		t.Errorf("P2P = %g, want %g", got, want)
	}
	if P2PTime(0, link) != 0 {
		t.Error("zero bytes should cost nothing")
	}
}

func TestDegenerateGroups(t *testing.T) {
	link := bigLink()
	if AllReduceTime(Ring, 1e6, 1, link) != 0 {
		t.Error("single-device all-reduce is free")
	}
	if AllReduceTime(Ring, 0, 8, link) != 0 {
		t.Error("zero-byte all-reduce is free")
	}
	if AllGatherTime(1e6, 1, link) != 0 {
		t.Error("single-device all-gather is free")
	}
}

func TestZeroLinkIsInfinite(t *testing.T) {
	if !math.IsInf(AllReduceTime(Ring, 1e6, 4, arch.Link{}), 1) {
		t.Error("all-reduce over a missing link must be infinite")
	}
	if !math.IsInf(P2PTime(1e6, arch.Link{}), 1) {
		t.Error("p2p over a missing link must be infinite")
	}
	if !math.IsInf(AllGatherTime(1e6, 4, arch.Link{}), 1) {
		t.Error("all-gather over a missing link must be infinite")
	}
}

func TestAlgorithmString(t *testing.T) {
	if Ring.String() != "ring" || DoubleBinaryTree.String() != "double-binary-tree" {
		t.Error("algorithm names wrong")
	}
}

// Property: all-reduce time is monotone in payload and never negative.
func TestAllReduceMonotoneProperty(t *testing.T) {
	link := bigLink()
	f := func(kb uint16, n8 uint8) bool {
		k := float64(kb)*1e3 + 1
		n := int(n8)%63 + 2
		t1 := AllReduceTime(Ring, k, n, link)
		t2 := AllReduceTime(Ring, 2*k, n, link)
		return t1 > 0 && t2 >= t1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the tree algorithm never loses to the ring for any size/group.
func TestTreeNeverWorseProperty(t *testing.T) {
	link := bigLink()
	f := func(kb uint16, n8 uint8) bool {
		k := float64(kb)*1e3 + 1
		n := int(n8)%63 + 2
		return AllReduceTime(DoubleBinaryTree, k, n, link) <= AllReduceTime(Ring, k, n, link)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
